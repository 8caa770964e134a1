package platoon

import (
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sim"
)

// episodeAllocBudget is the allocation gate's budget (see
// internal/sim/alloc_test.go for the rationale).  A chain longer than two
// vehicles publishes Result.Links, one allocation per episode.  The burst
// link's Gilbert–Elliott process adds none: comms.Channel.Reset renews it
// in place (disturb.Renew).
const episodeAllocBudget = 1

// TestPlatoonEpisodeAllocs is the platoon allocation gate: a warm
// four-vehicle chain with the burst preset on its middle link and the
// chain's campaign invariant set attached must stay within the budget.
func TestPlatoonEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	burst, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	cfg.LinkComms = make([]comms.Config, cfg.Vehicles-1)
	for l := range cfg.LinkComms {
		cfg.LinkComms[l] = comms.NoDisturbance()
	}
	cfg.LinkComms[(cfg.Vehicles-1)/2] = comms.Disturbed(burst)
	sc := cfg.LinkScenario()
	agent := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
	invs := []sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, carfollow.TrueSlack{Cfg: sc}, StringStability{}}
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
		t.Errorf("platoon episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}
