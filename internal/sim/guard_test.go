package sim

import (
	"fmt"
	"reflect"
	"testing"

	"safeplan/internal/core"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/planner"
	"safeplan/internal/telemetry"
)

// faultInvariants is the fail-mode checker set: everything the paper's
// guarantee promises under planner faults.  MonitorConsistency is
// deliberately absent — a guard-forced κ_e step diverges from the
// monitor's verdict by design, which is exactly the containment the other
// checkers assert.
func faultInvariants(cfg Config) []Invariant {
	return []Invariant{
		NoCollision{},
		SoundEstimate{},
		EmergencyOneStep{Cfg: cfg.Scenario},
		NewGuardConsistency(cfg.Scenario),
	}
}

func ultimateAgent(cfg Config) core.Agent {
	return core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
}

// TestGuardParityNoFault pins the pass-through contract: enabling the
// guard without a fault model must not change a single byte of the
// episode — same trace, same outcome — and must leave every guard counter
// at zero.
func TestGuardParityNoFault(t *testing.T) {
	for _, ep := range goldenEpisodes() {
		ep := ep
		t.Run(ep.Name, func(t *testing.T) {
			run := func(cfg Config) Result {
				res, err := Run(cfg, ultimateAgent(cfg), Options{Seed: goldenSeed, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(ep.Cfg)

			guarded := ep.Cfg
			gc := guard.DefaultConfig(ep.Cfg.Scenario.Ego)
			guarded.Guard = &gc
			g := run(guarded)

			if g.Guard.Faults != 0 || g.Guard.FallbackLastGood != 0 || g.Guard.FallbackEmergency != 0 ||
				g.Guard.BypassSteps != 0 || g.Guard.WorstState != guard.Nominal {
				t.Fatalf("healthy planner tripped the guard: %+v", g.Guard)
			}
			if g.Guard.PlannerCalls != g.Steps {
				t.Fatalf("guard saw %d calls for %d steps", g.Guard.PlannerCalls, g.Steps)
			}
			if len(plain.Trace) != len(g.Trace) {
				t.Fatalf("trace lengths differ: %d vs %d", len(plain.Trace), len(g.Trace))
			}
			for i := range plain.Trace {
				// Formatted compare: Sample holds NaN placeholders and
				// NaN != NaN under ==.
				if fmt.Sprintf("%+v", plain.Trace[i]) != fmt.Sprintf("%+v", g.Trace[i]) {
					t.Fatalf("step %d differs with guard enabled:\n%+v\n%+v",
						i, plain.Trace[i], g.Trace[i])
				}
			}
		})
	}
}

// TestFaultPresetsContained is the fail-mode acceptance sweep: under every
// fault-injection preset the episode must never panic, never collide,
// never burn κ_e's one-step slack, and every guard intervention must obey
// the containment contract (GuardConsistency).
func TestFaultPresetsContained(t *testing.T) {
	const episodes = 40
	for _, name := range faultinject.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := faultinject.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.InfoFilter = true
			cfg.PlannerFault = m
			for seed := int64(0); seed < episodes; seed++ {
				res, err := Run(cfg, ultimateAgent(cfg), Options{
					Seed:       seed,
					Invariants: faultInvariants(cfg),
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Eta < 0 {
					t.Fatalf("seed %d: collided under preset %s", seed, name)
				}
			}
		})
	}
}

// TestHighRateFaultsContained stresses the acceptance criterion's named
// worst cases — PanicP and NaNOutput at p = 0.5 — where half of all
// planner calls fail.
func TestHighRateFaultsContained(t *testing.T) {
	models := []faultinject.Model{
		faultinject.PanicP{P: 0.5},
		faultinject.NaNOutput{P: 0.5},
	}
	for _, m := range models {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.InfoFilter = true
			cfg.PlannerFault = m
			sawFault := false
			for seed := int64(0); seed < 60; seed++ {
				res, err := Run(cfg, ultimateAgent(cfg), Options{
					Seed:       seed,
					Invariants: faultInvariants(cfg),
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Guard.Faults > 0 {
					sawFault = true
				}
				if res.Guard.PlannerCalls == 0 {
					t.Fatalf("seed %d: guard never invoked", seed)
				}
			}
			if !sawFault {
				t.Fatal("p=0.5 injection never fired — wiring broken")
			}
		})
	}
}

// TestGuardAutoInstalledWithFaultModel: a fault model without an explicit
// guard must install the default guard — injected panics never escape.
func TestGuardAutoInstalledWithFaultModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlannerFault = faultinject.PanicEvery{N: 5}
	res, err := Run(cfg, ultimateAgent(cfg), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard.Panics == 0 {
		t.Fatalf("expected contained panics, stats %+v", res.Guard)
	}
}

// TestGuardStatsDeterministic: the guard and injector draw from seed-derived
// streams, so a repeated run reproduces the exact episode including every
// guard counter.
func TestGuardStatsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InfoFilter = true
	m, err := faultinject.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlannerFault = m
	run := func() Result {
		res, err := Run(cfg, ultimateAgent(cfg), Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-injected episode not reproducible:\n%+v\n%+v", a.Guard, b.Guard)
	}
}

// TestGuardTelemetryEvents checks the collector wiring: fault presets emit
// guard events; a guarded no-fault run emits none.
func TestGuardTelemetryEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlannerFault = faultinject.NaNOutput{P: 0.5}
	mtr := telemetry.NewMetrics()
	if _, err := Run(cfg, ultimateAgent(cfg), Options{Seed: 5, Collector: mtr}); err != nil {
		t.Fatal(err)
	}
	s := mtr.Snapshot()
	if s.GuardEvents == 0 || s.GuardFaults["non-finite"] == 0 {
		t.Fatalf("no guard events recorded: %+v", s.GuardFaults)
	}

	clean := DefaultConfig()
	gc := guard.DefaultConfig(clean.Scenario.Ego)
	clean.Guard = &gc
	mtr2 := telemetry.NewMetrics()
	if _, err := Run(clean, ultimateAgent(clean), Options{Seed: 5, Collector: mtr2}); err != nil {
		t.Fatal(err)
	}
	if s2 := mtr2.Snapshot(); s2.GuardEvents != 0 {
		t.Fatalf("guarded no-fault run emitted %d guard events", s2.GuardEvents)
	}
}

// TestRunMultiGuarded exercises the multi-vehicle runner's wiring.
func TestRunMultiGuarded(t *testing.T) {
	cfg := DefaultMultiConfig()
	cfg.InfoFilter = true
	cfg.PlannerFault = faultinject.NaNOutput{P: 0.3}
	agent := core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
	res, err := RunMulti(cfg, agent, Options{Seed: 9, Invariants: []Invariant{
		NoCollision{},
		SoundEstimate{},
		EmergencyOneStep{Cfg: cfg.Scenario},
		NewGuardConsistency(cfg.Scenario),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard.PlannerCalls == 0 {
		t.Fatal("guard never invoked in RunMulti")
	}
}

// runSeeds runs n left-turn episodes with seeds base … base+n−1, one
// after another.
func runSeeds(t *testing.T, cfg Config, agent core.Agent, n int, base int64) []Result {
	t.Helper()
	rs := make([]Result, n)
	for i := range rs {
		r, err := Run(cfg, agent, Options{Seed: base + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

// TestGuardedCampaignMatchesUnguarded pins the guard's transparency at
// campaign scale: with a guard enabled and no fault model, every
// per-episode outcome must be identical to the unguarded campaign once
// the guard's own call counters are set aside.
func TestGuardedCampaignMatchesUnguarded(t *testing.T) {
	const episodes = 16
	cfg := DefaultConfig()
	cfg.InfoFilter = true
	agent := ultimateAgent(cfg)
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

// TestFaultInjectedCampaignDeterministic pins campaign determinism under
// active fault injection, guard statistics included.
func TestFaultInjectedCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InfoFilter = true
	m, err := faultinject.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlannerFault = m
	agent := ultimateAgent(cfg)
	a := runSeeds(t, cfg, agent, 16, 7)
	b := runSeeds(t, cfg, agent, 16, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fault-injected campaign not deterministic")
	}
}

// decodeFaultModel maps fuzz bytes onto an always-valid fault model.
func decodeFaultModel(r *fuzzReader) faultinject.Model {
	switch r.next() % 9 {
	case 0:
		return nil
	case 1:
		return faultinject.PanicEvery{N: 1 + int(r.next())%50}
	case 2:
		return faultinject.PanicP{P: r.unit()}
	case 3:
		return faultinject.NaNOutput{P: r.unit()}
	case 4:
		return faultinject.StuckOutput{P: r.unit(), Hold: 1 + int(r.next())%30}
	case 5:
		return faultinject.BiasOutput{Bias: r.rng(-12, 12), P: r.unit()}
	case 6:
		lo := r.rng(0, 0.3)
		return faultinject.LatencySpike{P: r.unit(), Min: lo, Max: lo + r.unit()}
	case 7:
		return faultinject.Flaky{
			Inner:    faultinject.NaNOutput{P: r.rng(0.2, 1)},
			PGoodBad: r.unit(),
			PBadGood: r.rng(0.02, 1),
			StartBad: r.next()%2 == 0,
		}
	default:
		return faultinject.Stack{Models: []faultinject.Model{
			faultinject.PanicP{P: r.rng(0, 0.3)},
			faultinject.NaNOutput{P: r.rng(0, 0.5)},
			faultinject.StuckOutput{P: r.rng(0, 0.1), Hold: 1 + int(r.next())%20},
			faultinject.BiasOutput{Bias: r.rng(-8, 8), P: r.unit()},
			faultinject.LatencySpike{P: r.unit(), Min: 0.05, Max: 0.5},
		}}
	}
}

// FuzzGuardedPlanner decodes arbitrary bytes into a planner fault model
// (optionally composed with a channel disturbance) and asserts the
// fail-mode guarantees via the shared invariant checkers: no escaped
// panic, no collision, κ_e's one-step slack preserved, and every guard
// intervention well-formed — no matter how the planner's compute fails.
func FuzzGuardedPlanner(f *testing.F) {
	f.Add([]byte{}, int64(1))                                // no fault, default guard
	f.Add([]byte{1, 4}, int64(7))                            // panic every 5th call
	f.Add([]byte{2, 127}, int64(42))                         // panic p≈0.5 (acceptance case)
	f.Add([]byte{3, 127}, int64(42))                         // NaN p≈0.5 (acceptance case)
	f.Add([]byte{4, 50, 10}, int64(3))                       // stuck bursts
	f.Add([]byte{5, 255, 200}, int64(9))                     // strong positive bias
	f.Add([]byte{6, 60, 120}, int64(11))                     // latency spikes
	f.Add([]byte{7, 200, 30, 30, 1}, int64(13))              // flaky NaN bursts
	f.Add([]byte{8, 30, 90, 10, 5, 128, 128, 80}, int64(99)) // worst-case stack

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		r := &fuzzReader{data: data}
		cfg := DefaultConfig()
		cfg.InfoFilter = true
		cfg.PlannerFault = decodeFaultModel(r)
		if r.next()%2 == 0 {
			cfg.SensorDisturb = decodeSensorModel(r)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoder produced invalid config: %v", err)
		}
		if _, err := Run(cfg, ultimateAgent(cfg), Options{
			Seed:       seed,
			Invariants: faultInvariants(cfg),
		}); err != nil {
			t.Fatalf("invariant violated under %v: %v", cfg.PlannerFault, err)
		}
	})
}
