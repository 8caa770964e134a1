package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// syntheticEpisode is a deterministic, nearly-free episode function used to
// exercise the engine at full campaign scale without paying for the
// simulator: outcome and score are pure functions of the seed, and the
// invariant hooks are honored exactly like the real runners honor them.
func syntheticEpisode(opts sim.Options) (sim.Result, error) {
	seed := opts.Seed
	r := sim.Result{Steps: int(10 + seed%17)}
	switch {
	case seed%97 == 0:
		r.Collided = true
		r.Eta = -1
	case seed%5 == 0:
		// timeout: η = 0
	default:
		r.Reached = true
		r.ReachTime = 8 + float64(seed%31)*0.25
		r.Eta = 1 / r.ReachTime
	}
	if seed%7 == 0 {
		r.EmergencySteps = 3
	}
	for _, inv := range opts.Invariants {
		if err := inv.CheckEpisode(&r); err != nil {
			return r, err
		}
	}
	return r, nil
}

// leftTurnFixture is a trimmed real-simulator campaign: basic compound
// design (no Kalman cost) under delayed comms with a short horizon, cheap
// enough that a 100k-episode determinism run fits in a test.
func leftTurnFixture() (sim.Config, core.Agent) {
	cfg := sim.DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.Horizon = 8
	sc := cfg.Scenario
	return cfg, core.NewBasic(sc, planner.ConservativeExpert(sc))
}

// TestCampaignDeterminismSynthetic asserts the headline engine guarantee
// at full scale: a 100k-episode campaign produces bit-identical aggregate
// statistics for 1 worker and 8 workers.
func TestCampaignDeterminismSynthetic(t *testing.T) {
	const n = 100_000
	run := func(workers int) Stats {
		rep, err := Run(Spec{Name: "det-syn", Episodes: n, BaseSeed: 3, Workers: workers}, syntheticEpisode)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	s1, s8 := run(1), run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("aggregate statistics differ between 1 and 8 workers:\n1: %+v\n8: %+v", s1, s8)
	}
	if s1.Episodes != n {
		t.Fatalf("aggregated %d episodes, want %d", s1.Episodes, n)
	}
	if s1.Collided == 0 || s1.Reached == 0 || s1.Timeouts == 0 {
		t.Fatalf("fixture should produce mixed outcomes, got %+v", s1.ShardStats)
	}
}

// TestCampaignDeterminismSimulator asserts the same property through the
// real left-turn simulator (100k episodes; downscaled under -race and
// -short, where the full campaign would dominate the suite's wall time).
func TestCampaignDeterminismSimulator(t *testing.T) {
	n := 100_000
	if raceEnabled || testing.Short() {
		n = 2_000
	}
	cfg, agent := leftTurnFixture()
	run := func(workers int) Stats {
		rep, err := Run(Spec{Name: "det-sim", Episodes: n, BaseSeed: 11, Workers: workers}, LeftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	s1, s8 := run(1), run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("simulator aggregate statistics differ between 1 and 8 workers:\n1: %+v\n8: %+v", s1, s8)
	}
}

// TestCampaignSpeedup asserts the parallel-efficiency acceptance bar on
// hardware that can express it: ≥ 4× episodes/sec at 8 workers on an
// 8-core machine.  Skipped on smaller machines and under the race
// detector, where the bar is not meaningful.
func TestCampaignSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need 8 cores for the speedup bar, have %d", runtime.NumCPU())
	}
	cfg, agent := leftTurnFixture()
	const n = 8_000
	run := func(workers int) float64 {
		rep, err := Run(Spec{Name: "speedup", Episodes: n, BaseSeed: 1, Workers: workers}, LeftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Perf.EpisodesPerSec
	}
	run(8) // warm caches so the 1-worker baseline is not penalized
	base := run(1)
	par := run(8)
	if speedup := par / base; speedup < 4 {
		t.Fatalf("8-worker speedup %.2fx < 4x (%.0f vs %.0f episodes/sec)", speedup, par, base)
	}
}

func TestCampaignCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	spec := Spec{Name: "resume", Episodes: 10_000, BaseSeed: 5, CheckpointPath: path}

	full, err := Run(spec, syntheticEpisode)
	if err != nil {
		t.Fatal(err)
	}

	// A clean re-run resumes every shard from disk and reproduces the
	// statistics bit-for-bit without running a single episode.
	resumed, err := Run(spec, func(sim.Options) (sim.Result, error) {
		t.Fatal("resumed campaign ran an episode despite a complete checkpoint")
		return sim.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Stats, resumed.Stats) {
		t.Fatalf("resumed statistics differ:\nfull:    %+v\nresumed: %+v", full.Stats, resumed.Stats)
	}
	if resumed.Perf.ResumedShards != resumed.Perf.Shards {
		t.Fatalf("resumed %d of %d shards", resumed.Perf.ResumedShards, resumed.Perf.Shards)
	}

	// Simulate an interruption: drop half the shards from the checkpoint,
	// resume, and demand the exact same statistics.
	ck, err := LoadCheckpoint(path, spec.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ck.Shards {
		if i%2 == 0 {
			delete(ck.Shards, i)
		}
	}
	if err := SaveCheckpoint(path, spec.Fingerprint(), ck); err != nil {
		t.Fatal(err)
	}
	partial, err := Run(spec, syntheticEpisode)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Perf.ResumedShards == 0 || partial.Perf.ResumedShards == partial.Perf.Shards {
		t.Fatalf("expected a partial resume, resumed %d of %d shards",
			partial.Perf.ResumedShards, partial.Perf.Shards)
	}
	if !reflect.DeepEqual(full.Stats, partial.Stats) {
		t.Fatalf("partially-resumed statistics differ:\nfull:    %+v\npartial: %+v", full.Stats, partial.Stats)
	}
}

func TestCampaignCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	spec := Spec{Name: "fp", Episodes: 500, BaseSeed: 1, CheckpointPath: path}
	if _, err := Run(spec, syntheticEpisode); err != nil {
		t.Fatal(err)
	}
	spec.BaseSeed = 2
	if _, err := Run(spec, syntheticEpisode); err == nil {
		t.Fatal("resuming a checkpoint with a different base seed must fail")
	}
}

// TestCampaignCheckpointSaveFailure: a checkpoint that cannot be written
// fails the campaign with the save error, and, like a failed episode,
// stops the shards still queued.
func TestCampaignCheckpointSaveFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "ckpt.json")
	spec := Spec{Name: "unsaved", Episodes: 80, BaseSeed: 1, Shards: 8, Workers: 1, CheckpointPath: path}
	ran := 0
	_, err := Run(spec, func(opts sim.Options) (sim.Result, error) {
		ran++
		return syntheticEpisode(opts)
	})
	if err == nil || !strings.Contains(err.Error(), `campaign "unsaved": checkpoint:`) {
		t.Fatalf("unwritable checkpoint: %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran %d episodes after the first save failed, want the first shard's 10", ran)
	}
}

func TestCampaignInvariantFailMode(t *testing.T) {
	spec := Spec{
		Name: "fail", Episodes: 500, BaseSeed: 0,
		Invariants: []sim.Invariant{sim.NoCollision{}},
	}
	_, err := Run(spec, syntheticEpisode)
	if err == nil {
		t.Fatal("expected the seed-0 collision to fail the campaign")
	}
	var v *sim.ViolationError
	if !errors.As(err, &v) || v.Invariant != (sim.NoCollision{}).Name() {
		t.Fatalf("error %v does not unwrap to the no-collision violation", err)
	}
}

func TestCampaignInvariantCountMode(t *testing.T) {
	const n = 2_000
	spec := Spec{
		Name: "count", Episodes: n, BaseSeed: 0,
		Invariants:      []sim.Invariant{sim.NoCollision{}},
		CountViolations: true,
	}
	rep, err := Run(spec, syntheticEpisode)
	if err != nil {
		t.Fatal(err)
	}
	// Seeds 0, 97, 194, … collide: ceil(n/97) violations.
	want := int64((n + 96) / 97)
	if got := rep.Stats.InvariantViolations[(sim.NoCollision{}).Name()]; got != want {
		t.Fatalf("counted %d violations, want %d", got, want)
	}
	if rep.Stats.Collided != want {
		t.Fatalf("aggregated %d collisions, want %d", rep.Stats.Collided, want)
	}
}

// TestCampaignProgressAndTelemetry checks the collector plumbing: progress
// reaches Episodes and per-episode outcomes land in the shared collector.
func TestCampaignProgressAndTelemetry(t *testing.T) {
	m := telemetry.NewMetrics()
	rep, err := Run(Spec{Name: "telemetry", Episodes: 1_000, BaseSeed: 9, Collector: m}, syntheticEpisode)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if done, total := s.ProgressDone, s.ProgressTotal; done != 1_000 || total != 1_000 {
		t.Fatalf("progress %d/%d, want 1000/1000", done, total)
	}
	if rep.Perf.EpisodesPerSec <= 0 || rep.Perf.WallSeconds <= 0 {
		t.Fatalf("perf section not populated: %+v", rep.Perf)
	}
}

// TestCampaignRealInvariants runs the full checker set through the real
// simulator: a guaranteed design must sail through with zero violations.
func TestCampaignRealInvariants(t *testing.T) {
	cfg, _ := leftTurnFixture()
	sc := cfg.Scenario
	// The aggressive expert triggers κ_e regularly, so the emergency
	// checkers see real activations rather than passing vacuously.
	agent := core.NewBasic(sc, planner.AggressiveExpert(sc))
	n := 400
	if testing.Short() {
		n = 100
	}
	rep, err := Run(Spec{
		Name: "real-invariants", Episodes: n, BaseSeed: 21,
		Invariants: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			sim.EmergencyOneStep{Cfg: sc},
			sim.NewMonitorConsistency(sc),
		},
	}, LeftTurn(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Episodes != int64(n) {
		t.Fatalf("ran %d episodes, want %d", rep.Stats.Episodes, n)
	}
}

// TestCampaignWorkerCountByteParity tightens the determinism guarantee to
// the serialized form consumers actually diff: the marshalled Stats of a
// real-simulator campaign must be byte-identical at 1, 4, and 16 workers.
// Sixteen workers exceed the shard scratch pool's steady population on
// most CI machines, so this also shuffles arenas across goroutines.
func TestCampaignWorkerCountByteParity(t *testing.T) {
	n := 4_000
	if raceEnabled || testing.Short() {
		n = 800
	}
	cfg, agent := leftTurnFixture()
	marshal := func(workers int) string {
		rep, err := Run(Spec{Name: "byte-parity", Episodes: n, BaseSeed: 5, Workers: workers}, LeftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	s1 := marshal(1)
	for _, w := range []int{4, 16} {
		if sw := marshal(w); sw != s1 {
			t.Fatalf("marshalled Stats differ between 1 and %d workers:\n1:  %s\n%d: %s", w, s1, w, sw)
		}
	}
}

// TestCampaignScratchPoolUnderRace exercises the shard-level scratch pool
// with far more concurrent shards in flight than arenas initially exist,
// so pooled arenas migrate between goroutines across shard boundaries.
// Its assertion is the race detector itself (plus determinism at the
// end); without -race it is still a useful smoke of the pool handoff.
func TestCampaignScratchPoolUnderRace(t *testing.T) {
	cfg, agent := leftTurnFixture()
	n := 640
	run := func() Stats {
		rep, err := Run(Spec{Name: "pool-race", Episodes: n, BaseSeed: 9, Workers: 16, Shards: 64}, LeftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated pooled campaigns diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunReportsLowestShardError: a failing campaign reports the lowest
// failed shard's own error, identical on every run whatever the timing —
// never a sibling stop, never whichever shard happened to fail first.
func TestRunReportsLowestShardError(t *testing.T) {
	cases := []struct {
		name string
		fail func(e int64) bool // fails episode e = seed − BaseSeed
		want string
	}{
		// Every shard fails on its first episode.
		{"every-seed", func(int64) bool { return true },
			`campaign "fails": shard 0 seed 40: seed 40 failed`},
		// Shard 0 fails only on its last episode, after the shards above
		// it have long failed on their first.
		{"late-shard-0", func(e int64) bool { return e == 9 || e >= 10 },
			`campaign "fails": shard 0 seed 49: seed 49 failed`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Name: "fails", Episodes: 640, BaseSeed: 40, Workers: 8}
			ep := func(opts sim.Options) (sim.Result, error) {
				if tc.fail(opts.Seed - spec.BaseSeed) {
					return sim.Result{}, fmt.Errorf("seed %d failed", opts.Seed)
				}
				return syntheticEpisode(opts)
			}
			for i := 0; i < 20; i++ {
				_, err := Run(spec, ep)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("run %d: error %v, want %s", i, err, tc.want)
				}
			}
		})
	}
}

// TestResultsWorkerParity: Results returns every episode in seed order,
// equal to a serial loop over the same episode func, and its marshalled
// form is byte-identical at 1, 4 and 16 workers.  It covers the expert
// left turn and the expert multi-vehicle stream under delayed comms.
func TestResultsWorkerParity(t *testing.T) {
	const n, base = 96, 17 // 96 episodes over 64 shards: uneven shards
	lt, _ := leftTurnFixture()
	lt.InfoFilter = true
	mv := sim.DefaultMultiConfig()
	mv.Comms = comms.Delayed(0.25, 0.5)
	mv.Horizon = 12
	mv.InfoFilter = true
	eps := map[string]EpisodeFunc{
		"left-turn": LeftTurn(lt, core.NewUltimate(lt.Scenario, planner.AggressiveExpert(lt.Scenario))),
		"multi":     MultiVehicle(mv, core.NewMultiUltimate(mv.Scenario, planner.ConservativeExpert(mv.Scenario))),
	}
	for name, ep := range eps {
		t.Run(name, func(t *testing.T) {
			serial := make([]sim.Result, n)
			for i := range serial {
				r, err := ep(sim.Options{Seed: base + int64(i)})
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = r
			}
			want, err := json.Marshal(serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 4, 16} {
				rs, err := Results(Spec{Name: name, Episodes: n, BaseSeed: base, Workers: w}, ep)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rs)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%d workers: results differ from the serial loop", w)
				}
			}
		})
	}
}

func TestResultsRejects(t *testing.T) {
	if _, err := Results(Spec{Episodes: 4}, nil); err == nil {
		t.Error("nil episode function accepted")
	}
	if _, err := Results(Spec{Episodes: 0}, syntheticEpisode); err == nil {
		t.Error("zero episodes accepted")
	}
	spec := Spec{Episodes: 4, CheckpointPath: filepath.Join(t.TempDir(), "ckpt.json")}
	if _, err := Results(spec, syntheticEpisode); err == nil {
		t.Error("checkpoint path accepted")
	}
}
