package campaign

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/carfollow"
	"safeplan/internal/core"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// DefaultShards is the campaign partition width.  It is deliberately
// independent of GOMAXPROCS: the shard structure pins the floating-point
// reduction order, so it must not change with the machine the campaign
// happens to run on.  64 shards keep 8–32 workers busy with negligible
// tail imbalance while keeping checkpoints small.
const DefaultShards = 64

// EpisodeFunc runs one episode under the given options (the campaign
// runner fills in Seed, Collector, Invariants and Scratch).  The scenario
// adapters — LeftTurn, MultiVehicle, CarFollow, Platoon — wrap the
// engine's episode runners; custom workloads can supply their own.
type EpisodeFunc func(opts sim.Options) (sim.Result, error)

// LeftTurn adapts the single-vehicle left-turn runner.  Every adapter
// shares its agent across Run's workers, so results are independent of
// the worker count only for agents that hold no mutable state across
// calls.  The analytic experts, the NN planners (their inference reads
// only the weights) and the compound designs around them qualify.  With
// a collector in the options, a compound agent runs as a copy that
// reports its monitor decisions there too (WithCollector).
func LeftTurn(cfg sim.Config, agent core.Agent) EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) { return sim.Run(cfg, collecting(agent, opts), opts) }
}

// MultiVehicle adapts the multi-vehicle left-turn runner.
func MultiVehicle(cfg sim.MultiConfig, agent core.MultiAgent) EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) { return sim.RunMulti(cfg, collecting(agent, opts), opts) }
}

// CarFollow adapts the car-following runner.
func CarFollow(cfg carfollow.SimConfig, agent carfollow.Agent) EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) {
		return carfollow.RunEpisode(cfg, collecting(agent, opts), opts)
	}
}

// Platoon adapts the N-vehicle platoon runner.
func Platoon(cfg platoon.SimConfig, agent carfollow.Agent) EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) {
		return platoon.RunEpisode(cfg, collecting(agent, opts), opts)
	}
}

// collecting is agent with opts' collector attached, or agent itself
// when the episode runs without one.
func collecting[A any](agent A, opts sim.Options) A {
	if opts.Collector == nil {
		return agent
	}
	return WithCollector(agent, opts.Collector)
}

// WithCollector returns the agent a run with collector c drives: a
// compound agent is shallow-copied with c attached (nil detaches), so
// the caller's agent is never written and reports into no earlier run's
// collector; any other agent is returned as is.
func WithCollector[A any](agent A, c telemetry.Collector) A {
	switch a := any(agent).(type) {
	case *core.Compound:
		cp := *a
		cp.Collector = c
		return any(&cp).(A)
	case *core.MultiCompound:
		cp := *a
		cp.Collector = c
		return any(&cp).(A)
	case *carfollow.Compound:
		cp := *a
		cp.Collector = c
		return any(&cp).(A)
	}
	return agent
}

// Spec configures a campaign.
type Spec struct {
	// Name labels the campaign in reports and checkpoint fingerprints.
	Name string
	// Episodes is the campaign size; episode i runs with seed BaseSeed+i.
	Episodes int
	BaseSeed int64

	// Shards partitions the episode range for aggregation; 0 selects
	// DefaultShards.  Results are bit-identical for any worker count at a
	// fixed shard count — change Shards and the (statistically
	// equivalent) aggregate floats may differ in the last ulp.
	Shards int
	// Workers bounds the number of concurrent shard goroutines; 0 selects
	// GOMAXPROCS.
	Workers int

	// Invariants are threaded into every episode (see sim.Invariant).  By
	// default the first violation aborts the campaign with the checker's
	// ViolationError; with CountViolations set, violations are tallied in
	// Stats.InvariantViolations instead and the campaign completes.
	Invariants      []sim.Invariant
	CountViolations bool

	// Collector receives per-step and per-episode telemetry from every
	// worker plus campaign progress; it must be concurrency-safe.
	Collector telemetry.Collector

	// CheckpointPath, when non-empty, enables checkpoint/resume: completed
	// shard aggregates are persisted to this JSON file (atomically, via
	// rename) and a later run with an identical Spec fingerprint resumes
	// from it, re-running only the missing shards.  CheckpointEvery sets
	// how many completed shards trigger a save; 0 saves after every shard.
	CheckpointPath  string
	CheckpointEvery int
}

func (s Spec) validate() error {
	if s.Episodes <= 0 {
		return fmt.Errorf("campaign: non-positive episode count %d", s.Episodes)
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: negative shard count %d", s.Shards)
	}
	if s.Workers < 0 {
		return fmt.Errorf("campaign: worker count %d must be >= 1 (0 selects GOMAXPROCS)", s.Workers)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("campaign: negative checkpoint interval %d", s.CheckpointEvery)
	}
	return nil
}

// shards resolves the effective shard count: never more shards than
// episodes, so every shard is non-empty.
func (s Spec) shards() int {
	n := s.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n > s.Episodes {
		n = s.Episodes
	}
	return n
}

// shardRange returns the half-open episode range [lo, hi) of shard i under
// the balanced contiguous partition: the first n%shards shards hold one
// extra episode.  The mapping depends only on (Episodes, Shards).
func shardRange(episodes, shards, i int) (lo, hi int) {
	q, r := episodes/shards, episodes%shards
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// Latency histogram bucket bounds [ns].  Step latency spans sub-µs
// analytic planners to ms-scale NN stacks; episode latency spans fast
// early-terminating episodes to multi-second horizons.
var (
	stepLatencyBounds = []float64{
		250, 500, 1e3, 2e3, 4e3, 8e3, 16e3, 32e3, 64e3, 128e3, 256e3, 1e6,
	}
	episodeLatencyBounds = []float64{
		1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 1e9, 1e10,
	}
)

// NumShards returns the effective shard count of the fixed partition —
// the same resolution Run uses, so out-of-process executors (internal/dist)
// walk exactly the shards a single-process run would.
func (s Spec) NumShards() int { return s.shards() }

// ShardRange returns the half-open episode index range [lo, hi) of shard
// i under the fixed balanced partition.  Episode e runs with seed
// BaseSeed+e wherever it executes.
func (s Spec) ShardRange(i int) (lo, hi int) {
	return shardRange(s.Episodes, s.shards(), i)
}

// RunShard executes episodes [from, hi) of shard i — from is the shard's
// own lo for a fresh run, or a mid-shard resume point — folding results
// into agg in episode index order, the canonical fold order, so a shard
// aggregate assembled across interruptions is byte-identical to one from
// an uninterrupted run.  In counting mode violations tally into
// agg.InvariantViolations.  after, when non-nil, runs after every folded
// episode with the index of the next episode to run; a non-nil return
// aborts the shard with that error (Run's progress and stop seam, the
// distributed worker's checkpoint and crash-injection seam).
func RunShard(spec Spec, episode EpisodeFunc, shard, from int, agg *ShardStats, after func(next int) error) error {
	if episode == nil {
		return fmt.Errorf("campaign: nil episode function")
	}
	if agg == nil {
		return fmt.Errorf("campaign: nil shard aggregate")
	}
	if err := spec.validate(); err != nil {
		return err
	}
	shards := spec.shards()
	if shard < 0 || shard >= shards {
		return fmt.Errorf("campaign: shard %d outside [0, %d)", shard, shards)
	}
	lo, hi := shardRange(spec.Episodes, shards, shard)
	if from < lo || from > hi {
		return fmt.Errorf("campaign: shard %d resume episode %d outside [%d, %d]", shard, from, lo, hi)
	}
	// In counting mode a violation tallies into this shard's aggregate
	// instead of failing the episode: counting at shard granularity keeps
	// the totals order-independent across workers and lets checkpointed
	// or remotely-run shards carry their counts with them.
	invs := countingInvariants(spec, agg)
	// One pooled arena serves the whole shard.  Episode results are
	// seed-deterministic with or without a scratch (the parity tests
	// assert it), so pooling cannot perturb Stats.
	scratch := scratchPool.Get().(*sim.Scratch)
	defer scratchPool.Put(scratch)
	for e := from; e < hi; e++ {
		seed := spec.BaseSeed + int64(e)
		r, err := episode(sim.Options{
			Seed:       seed,
			Collector:  spec.Collector,
			Invariants: invs,
			Scratch:    scratch,
		})
		if err != nil {
			return fmt.Errorf("campaign %q: shard %d seed %d: %w", spec.Name, shard, seed, err)
		}
		agg.Observe(&r)
		if after != nil {
			if err := after(e + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// FoldShards merges completed shard aggregates in ascending shard order
// and finalizes the derived rates — the exact reduction Run performs,
// exported so the distributed coordinator produces Stats byte-identical
// to a single-process run.  Every shard in [0, NumShards()) must be
// present.
func FoldShards(spec Spec, done map[int]*ShardStats) (Stats, error) {
	if err := spec.validate(); err != nil {
		return Stats{}, err
	}
	shards := spec.shards()
	var stats Stats
	for i := 0; i < shards; i++ {
		agg := done[i]
		if agg == nil {
			return Stats{}, fmt.Errorf("campaign: fold missing shard %d of %d", i, shards)
		}
		stats.ShardStats.Merge(agg)
	}
	stats.finalize()
	return stats, nil
}

// Run executes the campaign and returns its report.  Episodes are fanned
// across workers shard by shard; per-shard aggregates merge in shard order
// (FoldShards), so Stats is bit-identical for any worker count (Perf is
// wall-clock data and is not).  With a CheckpointPath set, completed shards
// persist to disk and an interrupted campaign resumes where it left off.
//
// A failing campaign reports the error of the lowest-numbered shard that
// failed: a failure stops only the shards above it, so every shard below
// still runs to its own end or its own error, and the report names the
// same shard and seed whatever the worker count or the timing.
func Run(spec Spec, episode EpisodeFunc) (*Report, error) {
	if episode == nil {
		return nil, fmt.Errorf("campaign: nil episode function")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	shards := spec.shards()
	workers := spec.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Resume: load previously completed shard aggregates, if any.
	done := make(map[int]*ShardStats)
	if spec.CheckpointPath != "" {
		ck, err := LoadCheckpoint(spec.CheckpointPath, spec.Fingerprint())
		if err != nil {
			return nil, err
		}
		for i, agg := range ck.Shards {
			done[i] = agg
		}
	}
	var resumedEpisodes int64
	for _, agg := range done {
		resumedEpisodes += agg.Episodes
	}

	pending := make([]int, 0, shards)
	for i := 0; i < shards; i++ {
		if _, ok := done[i]; !ok {
			pending = append(pending, i)
		}
	}

	stepHist := telemetry.NewHistogram(stepLatencyBounds...)
	epHist := telemetry.NewHistogram(episodeLatencyBounds...)

	var (
		mu       sync.Mutex // guards done, ckpt and failErr
		ckpt     = spec.Checkpointer()
		failLo   atomic.Int64 // first episode of the lowest failed shard
		failErr  error
		progress atomic.Int64
		ranSteps atomic.Int64
	)
	failLo.Store(math.MaxInt64)
	progress.Store(resumedEpisodes)
	// fail records err for the shard whose episodes start at lo and keeps
	// the lowest such shard's error.  Shards are contiguous, so "a lower
	// shard failed" is failLo < lo for a shard about to start and
	// failLo < next for a running one.
	fail := func(lo int, err error) {
		mu.Lock()
		if int64(lo) < failLo.Load() {
			failLo.Store(int64(lo))
			failErr = err
		}
		mu.Unlock()
	}

	// timed feeds Perf: the latency histograms and the executed steps.
	timed := func(opts sim.Options) (sim.Result, error) {
		t0 := time.Now()
		r, err := episode(opts)
		if err != nil {
			return r, err
		}
		durNs := float64(time.Since(t0).Nanoseconds())
		epHist.Observe(durNs)
		if r.Steps > 0 {
			stepHist.Observe(durNs / float64(r.Steps))
		}
		ranSteps.Add(int64(r.Steps))
		return r, nil
	}
	after := func(next int) error {
		if spec.Collector != nil {
			spec.Collector.OnProgress(progress.Add(1), int64(spec.Episodes))
		}
		if failLo.Load() < int64(next) {
			return errSiblingFailed
		}
		return nil
	}

	start := time.Now()
	parallelFor(workers, len(pending), func(k int) {
		shard := pending[k]
		lo, _ := shardRange(spec.Episodes, shards, shard)
		if failLo.Load() < int64(lo) {
			return // a lower shard or its save failed; drain the queue
		}
		agg := &ShardStats{}
		if err := RunShard(spec, timed, shard, lo, agg, after); err != nil {
			if err != errSiblingFailed {
				fail(lo, err)
			}
			return
		}
		mu.Lock()
		done[shard] = agg
		err := ckpt.ShardDone(done)
		mu.Unlock()
		if err != nil {
			fail(lo, fmt.Errorf("campaign %q: checkpoint: %w", spec.Name, err))
		}
	})
	wall := time.Since(start)

	if failErr != nil {
		return nil, failErr
	}

	stats, err := FoldShards(spec, done)
	if err != nil {
		return nil, err
	}

	perf := Perf{
		WallSeconds:     wall.Seconds(),
		Workers:         workers,
		Shards:          shards,
		ResumedShards:   shards - len(pending),
		ResumedEpisodes: resumedEpisodes,
	}
	if ran := stats.Episodes - resumedEpisodes; ran > 0 && wall > 0 {
		perf.EpisodesPerSec = float64(ran) / wall.Seconds()
		perf.StepsPerSec = float64(ranSteps.Load()) / wall.Seconds()
	}
	if s := stepHist.Snapshot(); s.Count > 0 {
		perf.StepP50Ns = s.Quantile(0.50)
		perf.StepP99Ns = s.Quantile(0.99)
	}
	if s := epHist.Snapshot(); s.Count > 0 {
		perf.EpisodeP50Ms = s.Quantile(0.50) / 1e6
		perf.EpisodeP99Ms = s.Quantile(0.99) / 1e6
	}

	return &Report{
		Name:     spec.Name,
		Episodes: spec.Episodes,
		BaseSeed: spec.BaseSeed,
		Stats:    stats,
		Perf:     perf,
	}, nil
}

// Results runs the campaign through Run and returns every episode's
// result in seed order, for callers that aggregate per-episode data Stats
// does not carry (eval.Aggregate's paired η for the winning percentage,
// per-link platoon gaps).  Each episode stores its result at index
// Seed − BaseSeed, so concurrent writes never share a slot.  Resumed
// shards carry aggregates only, so a CheckpointPath is refused.
func Results(spec Spec, episode EpisodeFunc) ([]sim.Result, error) {
	if episode == nil {
		return nil, fmt.Errorf("campaign: nil episode function")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.CheckpointPath != "" {
		return nil, fmt.Errorf("campaign: Results cannot resume from checkpoint %q", spec.CheckpointPath)
	}
	rs := make([]sim.Result, spec.Episodes)
	_, err := Run(spec, func(opts sim.Options) (sim.Result, error) {
		r, err := episode(opts)
		rs[opts.Seed-spec.BaseSeed] = r
		return r, err
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// parallelFor runs f(0) … f(n−1) across min(workers, n) goroutines and
// waits for completion.  f must only write to index-disjoint state.
func parallelFor(workers, n int, f func(i int)) {
	workers = min(workers, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// scratchPool recycles episode arenas across shards.  sync.Pool is safe
// here precisely because the pool boundary is the shard, never the
// episode: within a shard one goroutine owns one arena for the whole
// shard, so no cross-goroutine handoff can reorder anything.
var scratchPool = sync.Pool{New: func() any { return sim.NewScratch() }}

// errSiblingFailed stops a shard once an episode or a checkpoint save of
// a lower shard of the same Run has failed; Run reports the lowest
// shard's own failure, never this error.
var errSiblingFailed = errors.New("campaign: sibling shard failed")

// countingInvariants wraps the spec's checkers so violations tally into
// the shard aggregate instead of failing the episode (no-op outside
// counting mode).  Every checker name is pre-seeded with a zero entry so
// clean campaigns still report each invariant explicitly, and entries
// already present in agg (a mid-shard resume) keep accumulating.  The
// wrapped checkers write into agg's map and must only run on the
// goroutine that owns the shard.
func countingInvariants(spec Spec, agg *ShardStats) []sim.Invariant {
	invs := spec.Invariants
	if !spec.CountViolations || len(invs) == 0 {
		return invs
	}
	if agg.InvariantViolations == nil {
		agg.InvariantViolations = make(map[string]int64, len(invs))
	}
	wrapped := make([]sim.Invariant, len(invs))
	for i, inv := range invs {
		if _, ok := agg.InvariantViolations[inv.Name()]; !ok {
			agg.InvariantViolations[inv.Name()] = 0
		}
		wrapped[i] = countingInvariant{inner: inv, m: agg.InvariantViolations}
	}
	return wrapped
}

// countingInvariant tallies violations instead of failing the episode.
type countingInvariant struct {
	inner sim.Invariant
	m     map[string]int64
}

func (c countingInvariant) Name() string { return c.inner.Name() }

func (c countingInvariant) CheckStep(s *sim.StepInfo) error {
	if c.inner.CheckStep(s) != nil {
		c.m[c.inner.Name()]++
	}
	return nil
}

func (c countingInvariant) CheckEpisode(r *sim.Result) error {
	if c.inner.CheckEpisode(r) != nil {
		c.m[c.inner.Name()]++
	}
	return nil
}
