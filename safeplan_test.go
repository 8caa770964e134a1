package safeplan

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultsValid(t *testing.T) {
	sc := DefaultScenario()
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if err := DefaultSimConfig().Validate(); err != nil {
		t.Fatalf("sim config: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.DtM = -1
	_, err := RunEpisode(cfg, BuildPure(sc, NewConservativeExpert(sc)), 1)
	if err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Fatalf("invalid config: RunEpisode error = %v", err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	sc := DefaultScenario()
	kn := NewConservativeExpert(sc)
	agent := BuildUltimate(sc, kn)
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	r, err := RunEpisode(cfg, agent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reached || r.Collided {
		t.Fatalf("quickstart episode failed: %+v", r)
	}
}

func TestPureVsCompoundSafety(t *testing.T) {
	sc := DefaultScenario()
	kn := NewAggressiveExpert(sc)
	cfg := DefaultSimConfig()

	pure, err := RunCampaign(cfg, BuildPure(sc, kn), 80, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ult := cfg
	ult.InfoFilter = true
	comp, err := RunCampaign(ult, BuildUltimate(sc, kn), 80, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if pure.SafeRate() >= 1 {
		t.Fatal("aggressive pure planner unexpectedly 100% safe")
	}
	if comp.SafeRate() != 1 {
		t.Fatalf("compound planner not 100%% safe: %v", comp.SafeRate())
	}
	// Headline inequality (paper Eq. 1): η(κ_c) ≥ η(κ_n) on average.
	if comp.MeanEta < pure.MeanEta {
		t.Fatalf("compound η %v below pure %v", comp.MeanEta, pure.MeanEta)
	}
}

func TestRunEpisodeWithTrace(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	r, err := RunEpisode(cfg, BuildPure(sc, NewConservativeExpert(sc)), 2, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestCustomPlannerFunc(t *testing.T) {
	sc := DefaultScenario()
	// A trivially bad custom planner: always full throttle.  Wrapped in the
	// compound planner it must still be safe.
	reckless := PlannerFunc{PlannerName: "full-throttle", F: func(_ float64, _ VehicleState, _ Interval) float64 {
		return sc.Ego.AMax
	}}
	cfg := DefaultSimConfig()
	stats, err := RunCampaign(cfg, BuildBasic(sc, reckless), 60, 500)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SafeRate() != 1 {
		t.Fatalf("compound-wrapped reckless planner unsafe: %v", stats.SafeRate())
	}
}

func TestTrainAndUsePlanner(t *testing.T) {
	sc := DefaultScenario()
	nnp, loss, err := TrainPlanner(sc, NewConservativeExpert(sc), "nn", TrainOptions{
		Samples: 3000, Epochs: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) {
		t.Fatal("NaN training loss")
	}
	cfg := DefaultSimConfig()
	r, err := RunEpisode(cfg, BuildBasic(sc, nnp), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("compound-wrapped NN planner collided")
	}
}

func TestMultiVehicleFacade(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultMultiSimConfig()
	cfg.Vehicles = 2
	cfg.Comms = DelayedComms(0.25, 0.5)
	cfg.InfoFilter = true
	agent := BuildMultiUltimate(sc, NewAggressiveExpert(sc))
	r, err := MultiVehicleCampaign(cfg, agent)(EpisodeOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("multi-vehicle compound planner collided")
	}
	st, err := RunMultiCampaign(cfg, agent, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeRate() != 1 {
		t.Fatalf("multi campaign safe rate %v", st.SafeRate())
	}
	// The pure multi baseline must be less safe.
	ps, err := RunMultiCampaign(cfg, BuildMultiPure(sc, NewAggressiveExpert(sc)), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ps.SafeRate() >= 1 {
		t.Fatal("pure multi baseline suspiciously safe")
	}
	if got := BuildMultiBasic(sc, NewConservativeExpert(sc)).Name(); got == "" {
		t.Fatal("empty agent name")
	}
}

func TestFailureInjectionFacade(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	// The delayed channel with a total blackout over [1 s, 3 s).
	delayed := DelayedComms(0.25, 0.5).Model
	cfg.Comms = CommsConfig{Model: DisturbanceSchedule{Phases: []DisturbancePhase{
		{Start: 0, Model: delayed}, {Start: 1, Model: BlackoutModel{}}, {Start: 3, Model: delayed},
	}}}
	cfg.SensorDropProb = 0.3
	cfg.InfoFilter = true
	st, err := RunCampaign(cfg, BuildUltimate(sc, NewAggressiveExpert(sc)), 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeRate() != 1 {
		t.Fatalf("safe rate under failure injection: %v", st.SafeRate())
	}
}
