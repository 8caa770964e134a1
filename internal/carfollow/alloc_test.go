package carfollow

import (
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/sim"
)

// episodeAllocBudget is the allocation gate's budget (see
// internal/sim/alloc_test.go for the rationale).
const episodeAllocBudget = 2

// TestCarFollowEpisodeAllocs is the car-following allocation gate: with a
// warm scratch arena and the campaign invariant set attached, an episode
// of the delayed-comms information-filter stack must not allocate.
func TestCarFollowEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	invs := []sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, TrueSlack{Cfg: cfg.Scenario}}
	sh := sim.NewScratch()
	if _, err := RunEpisode(cfg, agent, sim.Options{Seed: 1, Scratch: sh, Invariants: invs}); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := RunEpisode(cfg, agent, sim.Options{Seed: seed, Scratch: sh, Invariants: invs}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("car-following episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}
