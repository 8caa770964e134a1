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
	plain := runSeeds(t, cfg, agent, episodes, 7)

	gc := guard.DefaultConfig(cfg.Scenario.Ego)
	cfg.Guard = &gc
	a := runSeeds(t, cfg, agent, episodes, 7)
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

// guardFieldRecorder records every link's guard annotation, in call order.
type guardFieldRecorder struct {
	sim.StepOnly
	rows []guardFieldRow
}

type guardFieldRow struct {
	t                      float64
	link                   int
	state, fault, fallback string
}

func (r *guardFieldRecorder) Name() string { return "guard-field-recorder" }

func (r *guardFieldRecorder) CheckStep(s *sim.StepInfo) error {
	r.rows = append(r.rows, guardFieldRow{s.T, s.Vehicle, s.GuardState, s.GuardFault, s.GuardFallback})
	return nil
}

// TestChainStepInfoGuardFieldsReset pins the per-link StepInfo refill of
// a guarded chain: the engine reuses one StepInfo for every link and
// annotates only link 0 (the ego's) with the guard's verdict, so links
// ≥ 1 must read empty guard fields on every step, including the steps on
// which link 0 carries a contained fault and its fallback.
func TestChainStepInfoGuardFieldsReset(t *testing.T) {
	m, err := faultinject.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := simCfg()
	cfg.InfoFilter = true
	cfg.PlannerFault = m
	gc := guard.DefaultConfig(cfg.Scenario.Ego)
	cfg.Guard = &gc
	ch := Chain{Vehicles: 4, Spacing: 20, Follower: *ConservativeExpert(cfg.Scenario)}
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	rec := &guardFieldRecorder{}
	faults := 0
	for seed := int64(0); seed < 3; seed++ {
		st, err := NewChainStepper(cfg, ch, agent, sim.Options{Seed: seed, Invariants: []sim.Invariant{rec}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(); err != nil {
			t.Fatal(err)
		}
		annotated := false
		for _, r := range rec.rows {
			if r.link == 0 {
				annotated = r.state != ""
				if r.fault != "" {
					faults++
				}
				continue
			}
			if annotated && (r.state != "" || r.fault != "" || r.fallback != "") {
				t.Fatalf("seed %d t=%v: link %d carries link 0's guard fields %q/%q/%q",
					seed, r.t, r.link, r.state, r.fault, r.fallback)
			}
		}
		rec.rows = rec.rows[:0]
	}
	if faults == 0 {
		t.Fatal("the worst-case fault preset never faulted link 0: the test checks nothing")
	}
}
