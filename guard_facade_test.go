package safeplan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"safeplan/internal/faultinject"
)

// TestGuardedTraceParity pins a core guarantee of the guard layer: with
// a guard enabled and no fault model, the golden trace stays bit-identical
// to the unguarded run.  Compared trace-by-trace (not whole-struct)
// because the guarded result additionally carries the guard's call
// counters.
func TestGuardedTraceParity(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.Comms = DelayedComms(0.25, 0.3)
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewConservativeExpert(sc))

	plain, err := RunEpisode(cfg, agent, 42, WithTrace())
	if err != nil {
		t.Fatal(err)
	}

	guarded := cfg
	gc := DefaultGuardConfig(VehicleLimits{}) // zero limits inherit the scenario's
	guarded.Guard = &gc
	opt, err := RunEpisode(guarded, agent, 42, WithTrace())
	if err != nil {
		t.Fatal(err)
	}

	if opt.Guard.Faults != 0 || opt.Guard.FallbackLastGood != 0 ||
		opt.Guard.FallbackEmergency != 0 || opt.Guard.WorstState != GuardNominal {
		t.Fatalf("healthy planner tripped the guard: %+v", opt.Guard)
	}
	if len(opt.Trace) != len(plain.Trace) {
		t.Fatalf("trace length %d, want %d", len(opt.Trace), len(plain.Trace))
	}
	for i := range plain.Trace {
		// Formatted compare: steps with no feasible window hold NaN
		// bounds and NaN != NaN under ==.
		if fmt.Sprintf("%+v", opt.Trace[i]) != fmt.Sprintf("%+v", plain.Trace[i]) {
			t.Fatalf("step %d differs with guard enabled:\n%+v\n%+v",
				i, plain.Trace[i], opt.Trace[i])
		}
	}
	if opt.Eta != plain.Eta || opt.Steps != plain.Steps || opt.Reached != plain.Reached {
		t.Fatalf("outcome differs: %+v vs %+v", opt, plain)
	}
}

// TestWithPlannerFaultOptions exercises the facade's fault-injection
// plumbing end to end through SimConfig.PlannerFault: an invalid model is
// rejected with the safeplan: prefix, a preset reaches the runner (faults
// observed, guard auto-installed), and the run still completes safely.
func TestWithPlannerFaultOptions(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewConservativeExpert(sc))

	bad := cfg
	bad.PlannerFault = faultinject.PanicP{P: 2}
	if _, err := RunEpisode(bad, agent, 1); err == nil ||
		!strings.HasPrefix(err.Error(), "safeplan:") {
		t.Fatalf("invalid fault model accepted: %v", err)
	}

	m, err := PlannerFaultPreset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlannerFault = m
	sawFault := false
	for seed := int64(0); seed < 8; seed++ {
		res, err := RunEpisode(cfg, agent, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Collided {
			t.Fatalf("seed %d: collided under planner faults", seed)
		}
		if res.Guard.PlannerCalls == 0 {
			t.Fatalf("seed %d: guard not auto-installed", seed)
		}
		if res.Guard.Faults > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("worst preset never fired over 8 seeds")
	}
}

// TestCarFollowPlannerFaultOption checks the second scenario's facade
// wiring for guard and fault injection through CarFollowSimConfig's
// PlannerFault field and the CarFollowCampaign adapter.
func TestCarFollowPlannerFaultOption(t *testing.T) {
	sc := DefaultCarFollowScenario()
	cfg := DefaultCarFollowSimConfig()
	cfg.InfoFilter = true
	agent := BuildCarFollowUltimate(sc, NewCarFollowConservativeExpert(sc))

	m, err := PlannerFaultPreset("nan")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlannerFault = m
	res, err := CarFollowCampaign(cfg, agent)(EpisodeOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided {
		t.Fatal("car-following episode collided under NaN faults")
	}
	if res.Guard.PlannerCalls == 0 {
		t.Fatal("guard not installed in car-following runner")
	}
}

// TestPlannerFaultPresetsResolve pins the re-exported preset catalogue.
func TestPlannerFaultPresetsResolve(t *testing.T) {
	names := PlannerFaultPresetNames()
	if len(names) == 0 {
		t.Fatal("empty planner-fault preset catalogue")
	}
	for _, name := range names {
		m, err := PlannerFaultPreset(name)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if name != "none" && m == nil {
			t.Errorf("preset %q resolved to nil", name)
		}
	}
	if _, err := PlannerFaultPreset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestFaultInvariantsCatalogue: the fail-mode checker set carries the
// containment checkers and deliberately omits MonitorConsistency.
func TestFaultInvariantsCatalogue(t *testing.T) {
	inv := FaultInvariants(DefaultScenario())
	if len(inv) != 4 {
		t.Fatalf("FaultInvariants returned %d checkers", len(inv))
	}
	names := map[string]bool{}
	for _, iv := range inv {
		names[iv.Name()] = true
	}
	for _, want := range []string{"no-collision", "sound-estimate", "emergency-one-step", "guard-consistency"} {
		if !names[want] {
			t.Errorf("missing invariant %q in %v", want, names)
		}
	}
	if names["monitor-iff-boundary"] {
		t.Error("MonitorConsistency must not run under guard-forced κ_e steps")
	}
}

// TestValidateRejectsNonFinite is a table-driven check: every float
// field of the simulation configs rejects NaN and ±Inf with a
// field-naming error, which RunEpisode returns with the safeplan: prefix.
func TestValidateRejectsNonFinite(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	simCases := []struct {
		field string
		set   func(*SimConfig, float64)
	}{
		{"DtM", func(c *SimConfig, v float64) { c.DtM = v }},
		{"DtS", func(c *SimConfig, v float64) { c.DtS = v }},
		{"Horizon", func(c *SimConfig, v float64) { c.Horizon = v }},
		{"SensorDropProb", func(c *SimConfig, v float64) { c.SensorDropProb = v }},
		{"OncomingStartSpread", func(c *SimConfig, v float64) { c.OncomingStartSpread = v }},
		{"OncomingSpeedMin", func(c *SimConfig, v float64) { c.OncomingSpeedMin = v }},
		{"OncomingSpeedMax", func(c *SimConfig, v float64) { c.OncomingSpeedMax = v }},
	}
	sc := DefaultScenario()
	agent := BuildPure(sc, NewConservativeExpert(sc))
	for _, tc := range simCases {
		for _, v := range vals {
			cfg := DefaultSimConfig()
			tc.set(&cfg, v)
			_, err := RunEpisode(cfg, agent, 1)
			if err == nil || !strings.HasPrefix(err.Error(), "safeplan:") ||
				!strings.Contains(err.Error(), tc.field) ||
				!strings.Contains(err.Error(), "finite") {
				t.Errorf("SimConfig.%s = %v: RunEpisode error = %v", tc.field, v, err)
			}
		}
	}

	cfCases := []struct {
		field string
		set   func(*CarFollowSimConfig, float64)
	}{
		{"DtM", func(c *CarFollowSimConfig, v float64) { c.DtM = v }},
		{"DtS", func(c *CarFollowSimConfig, v float64) { c.DtS = v }},
		{"Horizon", func(c *CarFollowSimConfig, v float64) { c.Horizon = v }},
		{"LeadSpeedMin", func(c *CarFollowSimConfig, v float64) { c.LeadSpeedMin = v }},
		{"LeadSpeedMax", func(c *CarFollowSimConfig, v float64) { c.LeadSpeedMax = v }},
	}
	for _, tc := range cfCases {
		for _, v := range vals {
			cfg := DefaultCarFollowSimConfig()
			tc.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) ||
				!strings.Contains(err.Error(), "finite") {
				t.Errorf("CarFollowSimConfig.%s = %v: Validate() = %v", tc.field, v, err)
			}
		}
	}
}

// TestValidateRejectsBadGuardConfig: guard misconfiguration surfaces
// through RunEpisode with the safeplan: prefix.
func TestValidateRejectsBadGuardConfig(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	gc := DefaultGuardConfig(VehicleLimits{})
	gc.StepBudget = math.NaN()
	cfg.Guard = &gc
	_, err := RunEpisode(cfg, BuildPure(sc, NewConservativeExpert(sc)), 1)
	if err == nil || !strings.HasPrefix(err.Error(), "safeplan:") ||
		!strings.Contains(err.Error(), "budget") {
		t.Fatalf("NaN step budget accepted: %v", err)
	}
}
