package carfollow

import (
	"reflect"
	"testing"

	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/sim"
)

// TestGuardedCampaignParity pins the car-following guard's transparency
// at campaign scale: with a guard enabled and no fault model, every
// episode must be identical to the unguarded campaign once the guard's
// own call counters are set aside.
func TestGuardedCampaignParity(t *testing.T) {
	const episodes = 12
	cfg := simCfg()
	cfg.InfoFilter = true
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	plain, err := sim.RunCampaign(episodes, sim.CampaignOptions{BaseSeed: 7}, episodeFunc(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}

	gc := guard.DefaultConfig(cfg.Scenario.Ego)
	cfg.Guard = &gc
	a, err := sim.RunCampaign(episodes, sim.CampaignOptions{BaseSeed: 7}, episodeFunc(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		g := a[i]
		if g.Guard.Faults != 0 || g.Guard.WorstState != guard.Nominal {
			t.Fatalf("episode %d: healthy planner tripped the guard: %+v", i, g.Guard)
		}
		g.Guard = guard.EpisodeStats{}
		if !reflect.DeepEqual(g, plain[i]) {
			t.Fatalf("episode %d differs with guard enabled:\n%+v\n%+v", i, plain[i], a[i])
		}
	}
}

// TestFaultPresetsContainedCarFollow sweeps every planner-fault preset
// through the car-following runner under the fail-mode invariants.
func TestFaultPresetsContainedCarFollow(t *testing.T) {
	for _, name := range faultinject.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := faultinject.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := simCfg()
			cfg.InfoFilter = true
			cfg.PlannerFault = m
			agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
			for seed := int64(0); seed < 10; seed++ {
				res, err := RunEpisode(cfg, agent, sim.Options{
					Seed: seed,
					Invariants: []sim.Invariant{
						sim.NoCollision{},
						sim.SoundEstimate{},
						TrueSlack{Cfg: cfg.Scenario},
						sim.GuardConsistency{Limits: cfg.Scenario.Ego},
					},
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Collided {
					t.Fatalf("seed %d: collided under preset %s", seed, name)
				}
				if res.Guard.PlannerCalls == 0 {
					t.Fatalf("seed %d: guard never invoked", seed)
				}
			}
		})
	}
}
