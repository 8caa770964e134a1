package monitor

import (
	"math"
	"testing"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
)

// TestEnvelopeEmergencyNotOK pins the Envelope contract for emergency
// verdicts: no planner command is admissible, only κ_e's.
func TestEnvelopeEmergencyNotOK(t *testing.T) {
	lim := leftturn.DefaultConfig().Ego
	o := Outcome{Emergency: true, Reason: "boundary"}
	if _, _, ok := o.Envelope(lim); ok {
		t.Fatal("emergency verdict admitted a planner command")
	}
}

// TestEnvelopeUnconstrained pins the zero verdict: the envelope is the
// full actuation interval.
func TestEnvelopeUnconstrained(t *testing.T) {
	lim := leftturn.DefaultConfig().Ego
	var o Outcome
	lo, hi, ok := o.Envelope(lim)
	if !ok || lo != lim.AMin || hi != lim.AMax {
		t.Fatalf("unconstrained envelope = [%v, %v] ok=%v, want [%v, %v]", lo, hi, ok, lim.AMin, lim.AMax)
	}
}

// TestEnvelopeDegenerateWidths walks the envelope through degenerate guard
// combinations: contradictory floor/ceiling collapses it (ok=false), an
// exactly-touching pair admits the single point, and guards outside the
// actuation limits never widen it.
func TestEnvelopeDegenerateWidths(t *testing.T) {
	lim := leftturn.DefaultConfig().Ego

	// Contradiction: floor above ceiling.
	o := Outcome{HasFloor: true, Floor: 2, HasCeil: true, Ceil: 1}
	if _, _, ok := o.Envelope(lim); ok {
		t.Fatal("floor > ceiling yielded a non-empty envelope")
	}

	// Zero width: floor equals ceiling — that single command is admissible.
	o = Outcome{HasFloor: true, Floor: 1.5, HasCeil: true, Ceil: 1.5}
	lo, hi, ok := o.Envelope(lim)
	if !ok || lo != 1.5 || hi != 1.5 {
		t.Fatalf("touching guards envelope = [%v, %v] ok=%v, want the point 1.5", lo, hi, ok)
	}

	// Guards looser than the actuation limits must not widen the envelope.
	o = Outcome{HasFloor: true, Floor: lim.AMin - 10, HasCeil: true, Ceil: lim.AMax + 10}
	lo, hi, ok = o.Envelope(lim)
	if !ok || lo != lim.AMin || hi != lim.AMax {
		t.Fatalf("loose guards envelope = [%v, %v] ok=%v, want actuation limits", lo, hi, ok)
	}

	// A floor beyond AMax is an infeasible demand: empty envelope.
	o = Outcome{HasFloor: true, Floor: lim.AMax + 1}
	if _, _, ok := o.Envelope(lim); ok {
		t.Fatal("floor above AMax yielded a non-empty envelope")
	}
}

// TestEnvelopeAtBoundaryBand probes Assess right at the X_b slack edge
// with an overlapping window: just inside the (margin-widened) band the
// verdict is an emergency hand-off with no admissible envelope; just
// outside it κ_n keeps the full actuation interval.
func TestEnvelopeAtBoundaryBand(t *testing.T) {
	m := newMonitor()
	c := m.Cfg
	lim := c.Ego
	v := 8.0
	band := c.BoundaryThreshold(v) + c.SafetyMargin
	w := interval.New(0, math.Inf(1)) // always intersects, inflation-proof

	// Slack a hair below the band edge: boundary emergency.
	inside := dynamics.State{P: c.Geometry.PF - c.BrakingDistance(v) - (band - 1e-6), V: v}
	out := m.Assess(inside, w)
	if !out.Emergency || out.Reason != "boundary" {
		t.Fatalf("inside-band verdict = %+v", out)
	}
	if _, _, ok := out.Envelope(lim); ok {
		t.Fatal("boundary verdict admitted a planner command")
	}

	// Slack a hair above the band edge: safe, full envelope.
	outside := dynamics.State{P: c.Geometry.PF - c.BrakingDistance(v) - (band + 1e-6), V: v}
	out = m.Assess(outside, w)
	if out.Emergency {
		t.Fatalf("outside-band verdict = %+v", out)
	}
	lo, hi, ok := out.Envelope(lim)
	if !ok || lo != lim.AMin || hi != lim.AMax {
		t.Fatalf("outside-band envelope = [%v, %v] ok=%v, want actuation limits", lo, hi, ok)
	}
}

// TestAssessEmptyIntersection pins the no-conflict cases: an empty
// oncoming window, and a committed ego whose own window is empty (already
// past the back line), both hand κ_n the full envelope.
func TestAssessEmptyIntersection(t *testing.T) {
	m := newMonitor()
	c := m.Cfg
	lim := c.Ego

	// Committed (negative slack) but the oncoming window is empty: no
	// conflict exists, no commitment guard applies.
	committed := dynamics.State{P: 0, V: 12}
	if c.Slack(committed) >= 0 {
		t.Fatal("setup: expected committed state")
	}
	out := m.Assess(committed, interval.Empty())
	if out.Emergency || out.HasFloor || out.HasCeil {
		t.Fatalf("empty-window verdict = %+v", out)
	}
	if lo, hi, ok := out.Envelope(lim); !ok || lo != lim.AMin || hi != lim.AMax {
		t.Fatalf("empty-window envelope = [%v, %v] ok=%v", lo, hi, ok)
	}

	// Ego already past the back line: its own window is empty, so even an
	// imminent oncoming window cannot intersect.
	past := dynamics.State{P: c.Geometry.PB + 1, V: 8}
	out = m.Assess(past, interval.New(0, 5))
	if out.Emergency || out.HasFloor || out.HasCeil {
		t.Fatalf("past-zone verdict = %+v", out)
	}
}

// TestApplyBothGuards pins Apply with a floor and a ceiling active at
// once: below clamps up, above clamps down, inside passes through, and a
// degenerate floor==ceiling pins every command to the point.
func TestApplyBothGuards(t *testing.T) {
	o := Outcome{HasFloor: true, Floor: -1, HasCeil: true, Ceil: 2}
	if got := o.Apply(-5); got != -1 {
		t.Fatalf("Apply(-5) = %v, want -1", got)
	}
	if got := o.Apply(5); got != 2 {
		t.Fatalf("Apply(5) = %v, want 2", got)
	}
	if got := o.Apply(0.5); got != 0.5 {
		t.Fatalf("Apply(0.5) = %v, want pass-through", got)
	}
	o = Outcome{HasFloor: true, Floor: 1, HasCeil: true, Ceil: 1}
	for _, a := range []float64{-3, 1, 3} {
		if got := o.Apply(a); got != 1 {
			t.Fatalf("degenerate Apply(%v) = %v, want 1", a, got)
		}
	}
}

// TestHoldSlackTuning pins the configurable hold band and release margin:
// a stop inside a widened band holds, the same stop is released under the
// default band, and the release decision flips exactly around
// clearFast + ReleaseMargin.
func TestHoldSlackTuning(t *testing.T) {
	cfg := leftturn.DefaultConfig()
	mDefault := Monitor{Cfg: cfg}
	mWide := Monitor{Cfg: cfg, HoldSlack: 3}

	// Stopped 2 m short of the line: outside the default 0.5 m band, inside
	// the widened 3 m band.
	ego := dynamics.State{P: cfg.Geometry.PF - 2, V: 0}
	w := interval.New(1, math.Inf(1))
	if out := mDefault.Assess(ego, w); out.Emergency && out.Reason == "hold" {
		t.Fatalf("default band held 2 m from the line: %+v", out)
	}
	if out := mWide.Assess(ego, w); !out.Emergency || out.Reason != "hold" {
		t.Fatalf("widened band did not hold: %+v", out)
	}

	// Release flips around clearFast + ReleaseMargin.
	near := dynamics.State{P: cfg.Geometry.PF - 0.2, V: 0}
	clearFast := dynamics.TimeToReach(cfg.Geometry.PB-near.P, 0, cfg.Ego.AMax, cfg.Ego.VMax)
	release := 1.5
	m := Monitor{Cfg: cfg, ReleaseMargin: release}
	held := m.Assess(near, interval.New(clearFast+release-1e-6, math.Inf(1)))
	if !held.Emergency || held.Reason != "hold" {
		t.Fatalf("conflict inside the release margin did not hold: %+v", held)
	}
	released := m.Assess(near, interval.New(clearFast+release+1e-3, math.Inf(1)))
	if released.Emergency && released.Reason == "hold" {
		t.Fatalf("conflict beyond the release margin still held: %+v", released)
	}
}

// TestInflationZeroValueDefaults pins the tuning contract: a zero
// WindowInflation selects the package default (the near-miss state that
// only the inflated test catches escalates under both).
func TestInflationZeroValueDefaults(t *testing.T) {
	cfg := leftturn.DefaultConfig()
	ego := dynamics.State{P: 0, V: 11}
	egoW := cfg.EgoWindow(ego)
	w := interval.New(egoW.Hi+DefaultWindowInflation/2, egoW.Hi+10)
	zeroMon := Monitor{Cfg: cfg}
	explicitMon := Monitor{Cfg: cfg, WindowInflation: DefaultWindowInflation}
	zero, explicit := zeroMon.Assess(ego, w), explicitMon.Assess(ego, w)
	if zero != explicit {
		t.Fatalf("zero-value tuning diverged: %+v vs %+v", zero, explicit)
	}
	if !zero.Emergency {
		t.Fatalf("near-miss state did not escalate under the default inflation: %+v", zero)
	}
}
