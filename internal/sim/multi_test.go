package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
)

func multiConfig() MultiConfig { return DefaultMultiConfig() }

func multiUltimate(cfg MultiConfig, aggressive bool) core.MultiAgent {
	var kn planner.Planner
	if aggressive {
		kn = planner.AggressiveExpert(cfg.Scenario)
	} else {
		kn = planner.ConservativeExpert(cfg.Scenario)
	}
	return core.NewMultiUltimate(cfg.Scenario, kn)
}

func TestMultiValidate(t *testing.T) {
	cfg := multiConfig()
	cfg.Vehicles = 0
	if cfg.Validate() == nil {
		t.Error("zero vehicles accepted")
	}
	cfg = multiConfig()
	cfg.SpacingDist = -1
	if cfg.Validate() == nil {
		t.Error("negative spacing accepted")
	}
	cfg = multiConfig()
	cfg.DtM = 0
	if cfg.Validate() == nil {
		t.Error("invalid base config accepted")
	}
}

// TestMultiValidateRejectsNonFiniteSpacing: NaN compares false with the
// negative-spacing check, so a NaN SpacingJitter used to validate and the
// episode then ran with NaN oncoming positions (reported as reached and
// collision-free, with hundreds of sound-interval violations).
func TestMultiValidateRejectsNonFiniteSpacing(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := multiConfig()
		cfg.SpacingDist = v
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "SpacingDist") {
			t.Errorf("SpacingDist = %v: Validate() = %v", v, err)
		}
		cfg = multiConfig()
		cfg.SpacingJitter = v
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "SpacingJitter") {
			t.Errorf("SpacingJitter = %v: Validate() = %v", v, err)
		}
		if _, err := RunMulti(cfg, multiUltimate(cfg, false), Options{Seed: 1}); err == nil {
			t.Errorf("SpacingJitter = %v: RunMulti ran", v)
		}
	}
}

// TestSpacingDistZeroSelectsDefault is the regression test for the
// documented zero-default: a zero SpacingDist must behave exactly like
// DefaultSpacingDist rather than stacking every oncoming vehicle at the
// same start position (modulo jitter), which is what the runner silently
// did before the fill was applied.
func TestSpacingDistZeroSelectsDefault(t *testing.T) {
	zero := multiConfig()
	zero.SpacingDist = 0
	explicit := multiConfig()
	explicit.SpacingDist = DefaultSpacingDist
	stacked := multiConfig()
	stacked.SpacingDist = 1e-9 // effectively stacked, but non-zero: no fill
	for seed := int64(0); seed < 10; seed++ {
		z, err := RunMulti(zero, multiUltimate(zero, false), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		e, err := RunMulti(explicit, multiUltimate(explicit, false), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if zs, es := mustJSON(t, z), mustJSON(t, e); zs != es {
			t.Fatalf("seed %d: zero spacing differs from DefaultSpacingDist\nzero:    %s\ndefault: %s", seed, zs, es)
		}
	}
	// The distinction must be observable: a genuinely tiny spacing yields a
	// different episode than the default fill on at least one seed.
	differs := false
	for seed := int64(0); seed < 10 && !differs; seed++ {
		z, err := RunMulti(zero, multiUltimate(zero, false), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s, err := RunMulti(stacked, multiUltimate(stacked, false), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		differs = mustJSON(t, z) != mustJSON(t, s)
	}
	if !differs {
		t.Fatal("near-zero spacing indistinguishable from the default fill — regression test inert")
	}
}

func TestRunMultiReachesSafely(t *testing.T) {
	cfg := multiConfig()
	cfg.InfoFilter = true
	r, err := RunMulti(cfg, multiUltimate(cfg, false), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("multi-vehicle episode collided")
	}
	if !r.Reached {
		t.Fatal("multi-vehicle episode timed out")
	}
	// With three oncoming vehicles the crossing takes longer than with one.
	single := DefaultConfig()
	single.InfoFilter = true
	sr, err := Run(single, core.NewUltimate(single.Scenario, planner.ConservativeExpert(single.Scenario)), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReachTime <= sr.ReachTime {
		t.Logf("note: multi reach %v vs single %v (seeds differ in stream layout)", r.ReachTime, sr.ReachTime)
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	cfg := multiConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	a, err := RunMulti(cfg, multiUltimate(cfg, true), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(cfg, multiUltimate(cfg, true), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.ReachTime != b.ReachTime || a.Steps != b.Steps {
		t.Fatal("RunMulti not deterministic")
	}
}

func TestRunMultiSingleVehicleMatchesShape(t *testing.T) {
	// A one-vehicle stream must behave like the left turn in aggregate
	// (not bit-identical: NewMultiStepper keeps the stream's RNG
	// derivation order).
	cfg := multiConfig()
	cfg.Vehicles = 1
	cfg.InfoFilter = true
	agent := multiUltimate(cfg, false)
	safe := 0
	for seed := int64(0); seed < 30; seed++ {
		r, err := RunMulti(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Collided {
			safe++
		}
	}
	if safe != 30 {
		t.Fatalf("one-vehicle stream unsafe: %d/30", safe)
	}
}

// Property: the multi-vehicle compound planner stays safe across random
// disturbance settings and stream sizes — the multi-vehicle version of the
// headline guarantee.
func TestQuickMultiEndToEndSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed int64) bool {
		u := seed
		if u < 0 {
			u = -u
		}
		cfg := multiConfig()
		cfg.Vehicles = 1 + int(u%4)
		switch u % 3 {
		case 1:
			cfg.Comms = comms.Delayed(0.25, float64(u%20)*0.05)
		case 2:
			cfg.Comms = comms.Lost()
			cfg.Sensor = sensor.Uniform(1 + float64(u%10)*0.3)
		}
		cfg.InfoFilter = u%2 == 0
		agent := multiUltimate(cfg, true)
		r, err := RunMulti(cfg, agent, Options{Seed: seed})
		if err != nil {
			return false
		}
		return !r.Collided
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// vehicleRecorder records the true state of every observed vehicle, step
// by step, through the invariant hook.
type vehicleRecorder struct {
	StepOnly
	states map[int][]float64 // vehicle index → true position per step
}

func (*vehicleRecorder) Name() string { return "vehicle-recorder" }

func (r *vehicleRecorder) CheckStep(s *StepInfo) error {
	r.states[s.Vehicle] = append(r.states[s.Vehicle], s.Other.P)
	return nil
}

// TestRunMultiTraceRecordsVehicleOne pins Options.Trace on the oncoming
// stream: one row per step, describing vehicle 1 (track 0) — it used to
// come back empty.
func TestRunMultiTraceRecordsVehicleOne(t *testing.T) {
	cfg := multiConfig()
	cfg.Vehicles = 3
	rec := &vehicleRecorder{states: map[int][]float64{}}
	res, err := RunMulti(cfg, multiUltimate(cfg, false), Options{Seed: 7, Trace: true, Invariants: []Invariant{rec}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || len(res.Trace) != res.Steps {
		t.Fatalf("trace holds %d rows for %d steps", len(res.Trace), res.Steps)
	}
	for i, s := range res.Trace {
		if s.OncP != rec.states[0][i] {
			t.Fatalf("step %d: trace OncP %v, vehicle 1 at %v", i, s.OncP, rec.states[0][i])
		}
		if s.OncP == rec.states[1][i] {
			t.Fatalf("step %d: trace OncP equals vehicle 2's position %v", i, s.OncP)
		}
	}
}
