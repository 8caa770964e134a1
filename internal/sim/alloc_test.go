package sim

import (
	"encoding/json"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/planner"
	"safeplan/internal/telemetry"
)

// The allocation gate: with a warmed scratch arena, an episode's steady
// state must not allocate.  testing.AllocsPerRun reports the average
// mallocs per run, so any per-step or per-episode allocation that sneaks
// back into the hot path fails this test with its count.
//
// The budget is a small constant, not zero: construction paths that run
// once per *process* (lazy pool growth on the first episode) are warmed
// up before measuring, but the runtime itself occasionally charges a
// stray allocation (timer bookkeeping, stack growth) to the measured
// function.  Anything above the budget is a real regression — the
// pre-arena baseline was 25–70 allocations per episode.
const episodeAllocBudget = 2

// The gated episodes run with the campaigns' invariant sets attached, so
// the per-step StepInfo handed to every checker is covered too: a payload
// that escaped to the heap would cost one allocation per step.
func TestEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := allocBenchConfig()
	agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
	invs := []Invariant{NoCollision{}, SoundEstimate{}, EmergencyOneStep{Cfg: cfg.Scenario}, NewMonitorConsistency(cfg.Scenario)}
	sh := NewScratch()
	// Warm the arena: the first episode grows every pool to steady state.
	if _, err := Run(cfg, agent, Options{Seed: 1, Scratch: sh, Invariants: invs}); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := Run(cfg, agent, Options{Seed: seed, Scratch: sh, Invariants: invs}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("left-turn episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}

func TestMultiEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultMultiConfig()
	cfg.Comms = allocBenchConfig().Comms
	cfg.InfoFilter = true
	agent := consMultiAgent(cfg)
	invs := []Invariant{NoCollision{}, SoundEstimate{}, EmergencyOneStep{Cfg: cfg.Scenario}}
	sh := NewScratch()
	if _, err := RunMulti(cfg, agent, Options{Seed: 1, Scratch: sh, Invariants: invs}); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := RunMulti(cfg, agent, Options{Seed: seed, Scratch: sh, Invariants: invs}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("multi-vehicle episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}

// TestMultiEpisodeAllocsWithCollector is the regression test for the
// collector-attached probe path: multiStepProbe used to allocate two
// fresh window slices per control step, so attaching telemetry broke the
// zero-alloc contract the bare gate above cannot see.  The window scratch
// now lives in the arena, and telemetry.Metrics itself is allocation-free
// (atomics and histogram bucket adds), so the same budget applies.
func TestMultiEpisodeAllocsWithCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	cfg := DefaultMultiConfig()
	cfg.Comms = allocBenchConfig().Comms
	cfg.InfoFilter = true
	agent := consMultiAgent(cfg)
	coll := telemetry.NewMetrics()
	sh := NewScratch()
	if _, err := RunMulti(cfg, agent, Options{Seed: 1, Scratch: sh, Collector: coll}); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := RunMulti(cfg, agent, Options{Seed: seed, Scratch: sh, Collector: coll}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("collector-attached multi-vehicle episode allocates %.1f times with a warm scratch (budget %d)", avg, episodeAllocBudget)
	}
}

// TestScratchParity is the bit-identity half of the gate: the same seed
// must produce the same Result with a fresh arena, a reused arena, and no
// arena at all.  Marshalling to JSON compares every exported field bit
// for bit (floats round-trip exactly).
func TestScratchParity(t *testing.T) {
	cfg := allocBenchConfig()
	agent := consAgent(cfg)
	reused := NewScratch()
	for seed := int64(0); seed < 25; seed++ {
		bare, err := Run(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(cfg, agent, Options{Seed: seed, Scratch: NewScratch()})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Run(cfg, agent, Options{Seed: seed, Scratch: reused})
		if err != nil {
			t.Fatal(err)
		}
		b, f, p := mustJSON(t, bare), mustJSON(t, fresh), mustJSON(t, pooled)
		if b != f {
			t.Fatalf("seed %d: fresh-scratch episode diverged\nbare:  %s\nfresh: %s", seed, b, f)
		}
		if b != p {
			t.Fatalf("seed %d: reused-scratch episode diverged\nbare:   %s\npooled: %s", seed, b, p)
		}
	}
}

// TestScratchParityMulti repeats the parity check on the multi-vehicle
// runner, whose arena use is heaviest (per-track pools).
func TestScratchParityMulti(t *testing.T) {
	cfg := DefaultMultiConfig()
	cfg.Comms = allocBenchConfig().Comms
	cfg.InfoFilter = true
	agent := consMultiAgent(cfg)
	reused := NewScratch()
	for seed := int64(0); seed < 15; seed++ {
		bare, err := RunMulti(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := RunMulti(cfg, agent, Options{Seed: seed, Scratch: reused})
		if err != nil {
			t.Fatal(err)
		}
		if b, p := mustJSON(t, bare), mustJSON(t, pooled); b != p {
			t.Fatalf("seed %d: reused-scratch episode diverged\nbare:   %s\npooled: %s", seed, b, p)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// allocBenchConfig is the delayed-comms + information-filter stack — the
// heaviest steady state (Kalman replay, fusion, compound monitor).
func allocBenchConfig() Config {
	cfg := DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	return cfg
}

func consMultiAgent(cfg MultiConfig) core.MultiAgent {
	return core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
}
