package safeplan_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"safeplan"
)

// ExampleBuildUltimate shows the three-line path from any planner to a
// safety-guaranteed agent.
func ExampleBuildUltimate() {
	scenario := safeplan.DefaultScenario()
	kn := safeplan.NewConservativeExpert(scenario)
	agent := safeplan.BuildUltimate(scenario, kn)

	cfg := safeplan.DefaultSimConfig()
	cfg.InfoFilter = true
	r, err := safeplan.RunEpisode(cfg, agent, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("safe: %v, reached: %v\n", !r.Collided, r.Reached)
	// Output: safe: true, reached: true
}

// ExamplePlannerFunc wraps a hand-written policy; the compound planner
// guarantees safety regardless of what it outputs.
func ExamplePlannerFunc() {
	scenario := safeplan.DefaultScenario()
	fullThrottle := safeplan.PlannerFunc{
		PlannerName: "full-throttle",
		F: func(_ float64, _ safeplan.VehicleState, _ safeplan.Interval) float64 {
			return scenario.Ego.AMax
		},
	}
	agent := safeplan.BuildBasic(scenario, fullThrottle)
	r, err := safeplan.RunEpisode(safeplan.DefaultSimConfig(), agent, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("safe: %v\n", !r.Collided)
	// Output: safe: true
}

// ExampleRunCampaign aggregates the paper's per-campaign statistics.
func ExampleRunCampaign() {
	scenario := safeplan.DefaultScenario()
	agent := safeplan.BuildUltimate(scenario, safeplan.NewAggressiveExpert(scenario))
	cfg := safeplan.DefaultSimConfig()
	cfg.Comms = safeplan.DelayedComms(0.25, 0.5)
	cfg.InfoFilter = true
	stats, err := safeplan.RunCampaign(cfg, agent, 50, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("episodes: %d, safe rate: %.0f%%\n", stats.N, 100*stats.SafeRate())
	// Output: episodes: 50, safe rate: 100%
}

// TestSaveLoadPlannerRoundTripFacade exercises the model persistence path
// through the public API.
func TestSaveLoadPlannerRoundTripFacade(t *testing.T) {
	sc := safeplan.DefaultScenario()
	nnp, _, err := safeplan.TrainPlanner(sc, safeplan.NewConservativeExpert(sc), "rt",
		safeplan.TrainOptions{Samples: 2000, Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := nnp.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := safeplan.LoadPlanner(path, "rt2", sc)
	if err != nil {
		t.Fatal(err)
	}
	ego := safeplan.VehicleState{P: -20, V: 7}
	w := safeplan.Interval{Lo: 2, Hi: 8}
	if loaded.Accel(1, ego, w) != nnp.Accel(1, ego, w) {
		t.Fatal("loaded planner predicts differently")
	}
}

// TestCarFollowFacade exercises the second case study through the public
// API.
func TestCarFollowFacade(t *testing.T) {
	sc := safeplan.DefaultCarFollowScenario()
	cfg := safeplan.DefaultCarFollowSimConfig()
	cfg.Comms = safeplan.DelayedComms(0.25, 0.5)
	cfg.InfoFilter = true
	agent := safeplan.BuildCarFollowUltimate(sc, safeplan.NewCarFollowAggressiveExpert(sc))
	st, err := safeplan.RunCarFollowCampaign(cfg, agent, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.SafeRate() != 1 {
		t.Fatalf("car-following compound unsafe: %v", st.SafeRate())
	}
	r, err := safeplan.CarFollowCampaign(cfg, safeplan.BuildCarFollowPure(sc,
		safeplan.NewCarFollowConservativeExpert(sc)))(safeplan.EpisodeOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("conservative cruiser violated the gap")
	}
	if safeplan.BuildCarFollowBasic(sc, safeplan.NewCarFollowAggressiveExpert(sc)).Name() == "" {
		t.Fatal("empty name")
	}
}
