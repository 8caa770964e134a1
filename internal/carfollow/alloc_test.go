package carfollow

import (
	"math/rand"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/nn"
	"safeplan/internal/sim"
)

// episodeAllocBudget is the allocation gate's budget (see
// internal/sim/alloc_test.go for the rationale).
const episodeAllocBudget = 2

// TestCarFollowEpisodeAllocs is the car-following allocation gate: with a
// warm scratch arena and the campaign invariant set attached, an episode
// of the delayed-comms information-filter stack must not allocate.  The
// NN planner's features and forward pass stay on the stack, so its
// budget is 0: one allocation per Accel would cost one per step.
func TestCarFollowEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	nnPlanner := &NNPlanner{
		Label: "cf-nn-test",
		Net:   nn.NewMLP(rand.New(rand.NewSource(1)), nn.Tanh{}, FeatureCount, 8, 1),
		Norm:  &nn.Normalizer{Mean: make([]float64, FeatureCount), Std: []float64{50, 10, 10, 3, 20}},
		Cfg:   cfg.Scenario,
	}
	invs := []sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, TrueSlack{Cfg: cfg.Scenario}}
	for _, c := range []struct {
		name   string
		agent  Agent
		budget float64
	}{
		{"expert", NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario)), episodeAllocBudget},
		{"nn", NewUltimate(cfg.Scenario, nnPlanner), 0},
	} {
		sh := sim.NewScratch()
		if _, err := RunEpisode(cfg, c.agent, sim.Options{Seed: 1, Scratch: sh, Invariants: invs}); err != nil {
			t.Fatal(err)
		}
		seed := int64(0)
		avg := testing.AllocsPerRun(10, func() {
			seed++
			if _, err := RunEpisode(cfg, c.agent, sim.Options{Seed: seed, Scratch: sh, Invariants: invs}); err != nil {
				t.Fatal(err)
			}
		})
		if avg > c.budget {
			t.Errorf("%s car-following episode allocates %.1f times with a warm scratch (budget %v)", c.name, avg, c.budget)
		}
	}
}
