package guard

import (
	"math"
	"strings"
	"testing"

	"safeplan/internal/dynamics"
)

var testLimits = dynamics.Limits{VMin: 0, VMax: 12, AMin: -6, AMax: 3}

func newTestGuard(t *testing.T, mut func(*Config)) *Guard {
	t.Helper()
	cfg := DefaultConfig(testLimits)
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func planOK(a float64) func() (float64, bool)   { return func() (float64, bool) { return a, false } }
func planEmrg(a float64) func() (float64, bool) { return func() (float64, bool) { return a, true } }
func planPanic() func() (float64, bool)         { return func() (float64, bool) { panic("boom") } }

const kEmergency = -6.0

func emerg() float64 { return kEmergency }

func TestCleanPassThrough(t *testing.T) {
	g := newTestGuard(t, nil)
	a, em, r := g.Step(planOK(1.5), emerg, nil, nil)
	if a != 1.5 || em {
		t.Fatalf("clean step altered output: a=%v em=%v", a, em)
	}
	if r.Fault != FaultNone || r.Fallback != FallbackNone || r.Transition() {
		t.Fatalf("clean step reported %+v", r)
	}
	st := g.Stats()
	if st.PlannerCalls != 1 || st.Faults != 0 || st.FinalState != Nominal {
		t.Fatalf("stats %+v", st)
	}
}

func TestPanicContainedFallsBackToEmergency(t *testing.T) {
	g := newTestGuard(t, nil)
	a, em, r := g.Step(planPanic(), emerg, nil, nil)
	if a != kEmergency || !em {
		t.Fatalf("panic fallback a=%v em=%v, want κ_e", a, em)
	}
	if r.Fault != FaultPanic || r.Fallback != FallbackEmergency {
		t.Fatalf("panic step reported %+v", r)
	}
	if r.PanicValue == nil {
		t.Fatal("panic value not captured")
	}
	if g.Stats().Panics != 1 {
		t.Fatalf("stats %+v", g.Stats())
	}
}

func TestNonFiniteAndRangeUseLastGood(t *testing.T) {
	g := newTestGuard(t, nil)
	g.Step(planOK(2), emerg, nil, nil) // prime the last-good cache
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 99, -99} {
		a, em, r := g.Step(planOK(bad), emerg, nil, nil)
		if a != 2 || em {
			t.Fatalf("fault on %v: got a=%v em=%v, want last-good 2", bad, a, em)
		}
		if r.Fallback != FallbackLastGood {
			t.Fatalf("fault on %v: fallback %v", bad, r.Fallback)
		}
		g.Step(planOK(2), emerg, nil, nil) // drain the score between faults
	}
	st := g.Stats()
	if st.NonFinite != 3 || st.RangeRejects != 2 || st.FallbackLastGood != 5 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLastGoodExpiresToEmergency(t *testing.T) {
	g := newTestGuard(t, func(c *Config) { c.LastGoodTTL = 2; c.DegradeScore = 100; c.EmergencyScore = 100 })
	g.Step(planOK(2), emerg, nil, nil)
	// Age the cache past its TTL with faults (which never refresh it).
	for i := 0; i < 2; i++ {
		if _, _, r := g.Step(planOK(math.NaN()), emerg, nil, nil); r.Fallback != FallbackLastGood {
			t.Fatalf("step %d: fallback %v, want last-good", i, r.Fallback)
		}
	}
	if _, _, r := g.Step(planOK(math.NaN()), emerg, nil, nil); r.Fallback != FallbackEmergency {
		t.Fatalf("stale cache: fallback %v, want emergency", r.Fallback)
	}
}

func TestEmergencyVerdictFaultFallsBackToEmergency(t *testing.T) {
	g := newTestGuard(t, nil)
	g.Step(planOK(2), emerg, nil, nil)
	// κ_n said emergency but produced garbage: the verdict demands κ_e,
	// not the cached non-emergency command.
	a, em, r := g.Step(planEmrg(math.NaN()), emerg, nil, nil)
	if a != kEmergency || !em || r.Fallback != FallbackEmergency {
		t.Fatalf("got a=%v em=%v r=%+v, want κ_e", a, em, r)
	}
}

func TestEmergencyCommandCrossCheck(t *testing.T) {
	g := newTestGuard(t, nil)
	g.Step(planOK(2), emerg, nil, nil) // prime the last-good cache

	// A truthful emergency verdict carrying κ_e's own command passes
	// through untouched.
	a, em, r := g.Step(planEmrg(kEmergency), emerg, nil, nil)
	if a != kEmergency || !em || r.Fault != FaultNone || r.Fallback != FallbackNone {
		t.Fatalf("genuine κ_e step: a=%v em=%v r=%+v", a, em, r)
	}

	// An emergency verdict with a deviating in-range command (a stuck or
	// biased output stage) is an output-validation fault and must yield
	// the recomputed κ_e command — never the last-good cache.
	a, em, r = g.Step(planEmrg(1.5), emerg, nil, nil)
	if a != kEmergency || !em {
		t.Fatalf("impersonated κ_e step: a=%v em=%v, want recomputed κ_e", a, em)
	}
	if r.Fault != FaultRange || r.Fallback != FallbackEmergency {
		t.Fatalf("impersonated κ_e step reported %+v", r)
	}
	if g.Stats().RangeRejects != 1 {
		t.Fatalf("stats %+v", g.Stats())
	}
}

func TestDeadlineFault(t *testing.T) {
	g := newTestGuard(t, nil) // default budget 0.1 s
	lat := 0.0
	latFn := func() float64 { return lat }
	if _, _, r := g.Step(planOK(1), emerg, latFn, nil); r.Fault != FaultNone {
		t.Fatalf("on-time call flagged %v", r.Fault)
	}
	lat = 0.25
	a, em, r := g.Step(planOK(1), emerg, latFn, nil)
	if r.Fault != FaultDeadline {
		t.Fatalf("late call flagged %v", r.Fault)
	}
	if a != 1 || em {
		// last-good cache holds the previous command (1).
		t.Fatalf("deadline fallback a=%v em=%v", a, em)
	}
}

func TestDegradationAndRecoveryHysteresis(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.DegradeScore = 2
		c.EmergencyScore = 4
		c.RecoverySteps = 3
		c.LastGoodTTL = 100
	})
	fault := planOK(math.NaN())

	g.Step(fault, emerg, nil, nil)
	if g.State() != Nominal {
		t.Fatalf("one fault degraded to %v", g.State())
	}
	_, _, r := g.Step(fault, emerg, nil, nil)
	if g.State() != Degraded || !r.Transition() || r.Prev != Nominal {
		t.Fatalf("after 2 faults: state %v, r %+v", g.State(), r)
	}
	// Degraded faults must go to κ_e even with a fresh last-good cache.
	if _, _, r := g.Step(fault, emerg, nil, nil); r.Fallback != FallbackEmergency {
		t.Fatalf("degraded fallback %v", r.Fallback)
	}
	g.Step(fault, emerg, nil, nil)
	if g.State() != EmergencyOnly {
		t.Fatalf("after 4 faults: state %v", g.State())
	}

	// Recovery: drain the score (4 clean steps), then a full clean streak
	// per level.  The clean steps that drain the score also count toward
	// the streak only once the score is zero at streak completion.
	steps := 0
	for g.State() == EmergencyOnly {
		a, em, r := g.Step(planOK(1), emerg, nil, nil)
		if a != kEmergency || !em || r.Fallback != FallbackEmergency {
			t.Fatalf("bypass step a=%v em=%v r=%+v", a, em, r)
		}
		if steps++; steps > 50 {
			t.Fatal("never recovered from EmergencyOnly")
		}
	}
	if g.State() != Degraded {
		t.Fatalf("recovered to %v, want Degraded (one level at a time)", g.State())
	}
	// One more full streak to reach Nominal; commands flow again in
	// Degraded.
	steps = 0
	for g.State() == Degraded {
		a, em, _ := g.Step(planOK(1), emerg, nil, nil)
		if a != 1 || em {
			t.Fatalf("degraded clean step a=%v em=%v", a, em)
		}
		if steps++; steps > 50 {
			t.Fatal("never recovered from Degraded")
		}
	}
	st := g.Stats()
	if st.Degradations != 2 || st.Recoveries != 2 || st.WorstState != EmergencyOnly || st.FinalState != Nominal {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlakyPlannerReearnsTrustSlowly(t *testing.T) {
	g := newTestGuard(t, func(c *Config) {
		c.DegradeScore = 1
		c.EmergencyScore = 2
		c.RecoverySteps = 4
	})
	fault := planOK(math.NaN())
	g.Step(fault, emerg, nil, nil)
	g.Step(fault, emerg, nil, nil)
	if g.State() != EmergencyOnly {
		t.Fatalf("state %v", g.State())
	}
	// A fault mid-recovery resets the streak: 3 clean + 1 fault + 3 clean
	// must not recover (needs 4 consecutive with score drained).
	for i := 0; i < 3; i++ {
		g.Step(planOK(1), emerg, nil, nil)
	}
	g.Step(fault, emerg, nil, nil)
	for i := 0; i < 3; i++ {
		g.Step(planOK(1), emerg, nil, nil)
	}
	if g.State() != EmergencyOnly {
		t.Fatalf("flaky planner re-earned trust too fast: %v", g.State())
	}
}

// envFixed returns an envelope callback pinning a fixed safe-action
// interval, as the episode runners derive from the monitor's commitment
// guards.
func envFixed(lo, hi float64, ok bool) func() (float64, float64, bool) {
	return func() (float64, float64, bool) { return lo, hi, ok }
}

func TestEnvelopeRejectsCommittedViolation(t *testing.T) {
	g := newTestGuard(t, nil)
	// Committed passing-before: the monitor demands at least 1.0 m/s² to
	// keep clearing the zone ahead of the oncoming vehicle.  An in-limits
	// command below the floor (a stuck output replaying a gentle cruise)
	// must be rejected and replaced by κ_e, never executed.
	a, em, r := g.Step(planOK(0.2), emerg, nil, envFixed(1.0, 3.0, true))
	if r.Fault != FaultRange || r.Fallback != FallbackEmergency {
		t.Fatalf("floor violation reported %+v", r)
	}
	if a != kEmergency || !em {
		t.Fatalf("floor violation executed a=%v em=%v", a, em)
	}
	// A command satisfying the floor passes through untouched.
	a, em, r = g.Step(planOK(1.5), emerg, nil, envFixed(1.0, 3.0, true))
	if r.Fault != FaultNone || a != 1.5 || em {
		t.Fatalf("in-envelope command a=%v em=%v r=%+v", a, em, r)
	}
	if g.Stats().RangeRejects != 1 {
		t.Fatalf("stats %+v", g.Stats())
	}
}

func TestEnvelopeNotOKAdmitsOnlyEmergency(t *testing.T) {
	g := newTestGuard(t, nil)
	// ok=false: the monitor's verdict for this state is an emergency
	// hand-off, so a non-emergency command — however plausible — cannot
	// be trusted.
	a, em, r := g.Step(planOK(1), emerg, nil, envFixed(0, 0, false))
	if r.Fault != FaultRange || a != kEmergency || !em {
		t.Fatalf("no-envelope step a=%v em=%v r=%+v", a, em, r)
	}
}

func TestLastGoodRevalidatedAgainstEnvelope(t *testing.T) {
	g := newTestGuard(t, nil)
	// Cache 0.5 while the state is unconstrained.
	g.Step(planOK(0.5), emerg, nil, envFixed(-6, 3, true))
	// A fault arrives after the ego commits: the current envelope floors
	// commands at 1.0, the cached 0.5 would break the commitment, so the
	// fallback must be κ_e even though the cache is fresh.
	a, em, r := g.Step(planOK(math.NaN()), emerg, nil, envFixed(1.0, 3.0, true))
	if r.Fallback != FallbackEmergency || a != kEmergency || !em {
		t.Fatalf("stale-committed fallback a=%v em=%v r=%+v", a, em, r)
	}
	// With an envelope that still admits the cache, last-good is used.
	g.Step(planOK(0.5), emerg, nil, envFixed(-6, 3, true))
	a, em, r = g.Step(planOK(math.NaN()), emerg, nil, envFixed(-6, 3, true))
	if r.Fallback != FallbackLastGood || a != 0.5 || em {
		t.Fatalf("valid last-good fallback a=%v em=%v r=%+v", a, em, r)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nan budget", func(c *Config) { c.StepBudget = math.NaN() }, "step budget"},
		{"neg wall", func(c *Config) { c.WallBudget = -1 }, "wall budget"},
		{"neg ttl", func(c *Config) { c.LastGoodTTL = -1 }, "TTL"},
		{"zero degrade", func(c *Config) { c.DegradeScore = 0 }, "scores"},
		{"reversed scores", func(c *Config) { c.DegradeScore = 9 }, "below degrade"},
		{"zero recovery", func(c *Config) { c.RecoverySteps = 0 }, "recovery"},
		{"bad limits", func(c *Config) { c.Limits.AMin = 1 }, "AMin"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(testLimits)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := DefaultConfig(testLimits).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestEnumStrings(t *testing.T) {
	checks := []struct {
		got, want string
	}{
		{Nominal.String(), "nominal"},
		{Degraded.String(), "degraded"},
		{EmergencyOnly.String(), "emergency-only"},
		{FaultPanic.String(), "panic"},
		{FaultNonFinite.String(), "non-finite"},
		{FaultRange.String(), "range"},
		{FaultDeadline.String(), "deadline"},
		{FaultWallClock.String(), "wall-clock"},
		{FallbackLastGood.String(), "last-good"},
		{FallbackEmergency.String(), "emergency"},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// TestNaNBoundsNeverCertify pins the NaN-safe comparisons: a certified
// range or a monitor envelope with a NaN bound admits no command.  A NaN
// range counts as a certified miss, and a NaN envelope is a range fault.
func TestNaNBoundsNeverCertify(t *testing.T) {
	nan := math.NaN()
	for _, rng := range [][2]float64{{nan, nan}, {0, nan}, {nan, 3}} {
		g := newTestGuard(t, nil)
		g.SetCertifiedRange(func() (float64, float64, bool) { return rng[0], rng[1], true })
		_, _, r := g.Step(planOK(1.5), emerg, nil, nil)
		if st := g.Stats(); st.CertifiedSteps != 1 || st.CertifiedRangeMisses != 1 || !r.CertifiedMiss {
			t.Fatalf("range %v: stats %+v, miss %v; want one certified step that missed", rng, st, r.CertifiedMiss)
		}
	}
	g := newTestGuard(t, nil)
	_, _, r := g.Step(planOK(1.5), emerg, nil, func() (float64, float64, bool) { return nan, 3, true })
	if r.Fault != FaultRange {
		t.Fatalf("NaN envelope gave fault %v, want %v", r.Fault, FaultRange)
	}
}
