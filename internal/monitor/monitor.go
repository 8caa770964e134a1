// Package monitor implements the paper's runtime monitor (§III-C): every
// control step it estimates the unsafe set from the filtered information
// and decides whether the compound planner must hand control to the
// emergency planner — which, per Eq. 3, happens exactly when the current
// state lies in the boundary safe set X_b.
//
// Beyond the paper's slack-band formulation of X_b, the monitor adds two
// robustifications needed for a watertight *discrete-time* guarantee (the
// paper's §IV derivation only bounds the slack recursion and implicitly
// assumes the window-intersection term varies slowly):
//
//  1. The oncoming window used in the X_b membership test is inflated by a
//     small time margin, so an overlap that materializes within the next
//     step is already visible this step.
//  2. Once the ego is committed (negative slack — it can no longer stop
//     before the zone), the monitor constrains the NN planner's output to
//     preserve the disjointness that justified committing: an acceleration
//     floor when passing before the oncoming car (clear the back line
//     before its earliest possible arrival) and a ceiling when passing
//     after it (do not reach the front line before its latest possible
//     exit).  Without this, a pathological κ_n could brake mid-crossing
//     and create an overlap that no longer passes through X_b.
package monitor

import (
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
)

// DefaultWindowInflation is the time margin (seconds, each side) applied to
// the conservative oncoming window in the X_b membership test.
const DefaultWindowInflation = 0.25

// DefaultHoldSlack is the slack below which a stopped ego with a live
// conflict is held by the emergency planner instead of being handed back
// to κ_n.  Without the hold, an insistent κ_n re-accelerates from the stop
// every step and the resulting κ_n/κ_e oscillation creeps the vehicle a few
// millimetres forward per cycle — eventually across the front line, where
// κ_e's escape mode would drive it into the conflict.  The emergency
// planner stops the vehicle within StopMargin of the line, well inside
// this band.
const DefaultHoldSlack = 0.5

// DefaultReleaseMargin is the spare time (seconds) demanded between the
// ego's full-throttle clearing of the zone and the oncoming vehicle's
// earliest possible arrival before a held vehicle is released to κ_n.
const DefaultReleaseMargin = 0.3

// Outcome is the monitor's verdict for one control step.
type Outcome struct {
	// Emergency is true when the emergency planner must take over.
	Emergency bool
	// Reason explains an emergency hand-off ("boundary", "unsafe",
	// "infeasible-commit"); empty otherwise.
	Reason string

	// HasFloor/Floor constrain the NN planner's acceleration from below
	// (committed, passing before the oncoming vehicle).
	HasFloor bool
	Floor    float64
	// HasCeil/Ceil constrain it from above (committed, passing after).
	HasCeil bool
	Ceil    float64
}

// Monitor evaluates X_b membership, the stopped-at-line hold, and the
// commitment guards.  Zero-valued tuning fields select the package
// defaults; set WindowInflation negative to disable inflation
// (paper-faithful ablation).
type Monitor struct {
	Cfg             leftturn.Config
	WindowInflation float64
	HoldSlack       float64
	ReleaseMargin   float64
}

// New returns a Monitor for the scenario configuration.
func New(cfg leftturn.Config) Monitor { return Monitor{Cfg: cfg} }

func (m *Monitor) inflation() float64 {
	if m.WindowInflation == 0 {
		return DefaultWindowInflation
	}
	if m.WindowInflation < 0 {
		return 0
	}
	return m.WindowInflation
}

// Assess inspects the current ego state against the conservative
// (sound) oncoming window and returns the verdict.
func (m *Monitor) Assess(ego dynamics.State, wCons interval.Interval) Outcome {
	c := &m.Cfg
	// Inflate the window for the membership tests (clip at zero: the past
	// cannot conflict).
	wTest := wCons
	if !wTest.IsEmpty() {
		wTest = wTest.Expand(m.inflation())
		if wTest.Lo < 0 {
			wTest.Lo = 0
		}
	}
	if c.InUnsafeSet(ego, wTest) {
		// Defensive: with sound estimates and the guards below this state
		// is unreachable, but κ_e is still the best action from it.
		return Outcome{Emergency: true, Reason: "unsafe"}
	}
	if c.InBoundarySafeSet(ego, wTest) {
		return Outcome{Emergency: true, Reason: "boundary"}
	}
	if m.shouldHold(ego, wCons) {
		return Outcome{Emergency: true, Reason: "hold"}
	}

	// Commitment guards: slack < 0 with a live conflict window.
	if c.Slack(ego) >= 0 || wCons.IsEmpty() || ego.P > c.Geometry.PB {
		return Outcome{}
	}
	egoWin := c.EgoWindow(ego)
	if egoWin.IsEmpty() {
		return Outcome{}
	}
	switch {
	case egoWin.Hi < wCons.Lo:
		// Passing before: keep clearing the back line ahead of the
		// earliest possible oncoming arrival.
		floor, ok := c.MinAccelToClear(ego, wCons.Lo)
		if !ok {
			return Outcome{Emergency: true, Reason: "infeasible-commit"}
		}
		return Outcome{HasFloor: true, Floor: floor}
	case egoWin.Lo > wCons.Hi:
		// Passing after: do not arrive before the latest possible exit.
		ceil, ok := c.MaxAccelToDelay(ego, wCons.Hi)
		if !ok {
			return Outcome{Emergency: true, Reason: "infeasible-commit"}
		}
		return Outcome{HasCeil: true, Ceil: ceil}
	default:
		// Overlapping with negative slack is the unsafe set, handled above
		// for the inflated window; reaching here means only the inflation
		// margin overlaps — treat like the boundary case.
		return Outcome{Emergency: true, Reason: "boundary"}
	}
}

// shouldHold reports whether a (near-)stopped ego close to the front line
// must stay under κ_e: it is released only when even a full-throttle start
// clears the zone ReleaseMargin before the oncoming vehicle could arrive.
func (m *Monitor) shouldHold(ego dynamics.State, wCons interval.Interval) bool {
	if ego.V > 1e-9 || wCons.IsEmpty() || ego.P > m.Cfg.Geometry.PF {
		return false
	}
	holdSlack := m.HoldSlack
	if holdSlack == 0 {
		holdSlack = DefaultHoldSlack
	}
	if m.Cfg.Geometry.PF-ego.P >= holdSlack {
		return false
	}
	release := m.ReleaseMargin
	if release == 0 {
		release = DefaultReleaseMargin
	}
	clearFast := dynamics.TimeToReach(m.Cfg.Geometry.PB-ego.P, 0, m.Cfg.Ego.AMax, m.Cfg.Ego.VMax)
	return wCons.Lo <= clearFast+release
}

// Envelope returns the acceleration interval the verdict admits for a
// non-emergency command: the actuation limits narrowed by the commitment
// guards.  ok is false when the verdict is an emergency hand-off — no
// planner command is admissible from that state, only κ_e's.  The
// compute-fault guard validates every executed command against this
// interval: in the committed regime (negative slack) Apply silently
// clamps κ_n's output, so a replayed or corrupted command that merely
// sits inside the actuation limits can still break the window
// disjointness the commitment relies on.
func (o Outcome) Envelope(lim dynamics.Limits) (lo, hi float64, ok bool) {
	if o.Emergency {
		return 0, 0, false
	}
	lo, hi = lim.AMin, lim.AMax
	if o.HasFloor && o.Floor > lo {
		lo = o.Floor
	}
	if o.HasCeil && o.Ceil < hi {
		hi = o.Ceil
	}
	return lo, hi, lo <= hi
}

// Apply clamps a planner-proposed acceleration to the outcome's guards.
func (o Outcome) Apply(a float64) float64 {
	if o.HasFloor && a < o.Floor {
		a = o.Floor
	}
	if o.HasCeil && a > o.Ceil {
		a = o.Ceil
	}
	return a
}
