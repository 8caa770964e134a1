package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// CampaignOptions selects campaign-level behaviour shared by every
// scenario's campaigns.  It embeds the per-episode Options, which
// RunCampaign replicates for every episode: the Collector and Invariants
// fields apply to each episode (shared across workers, so both must be
// concurrency-safe/stateless — which telemetry.Metrics and every shipped
// Invariant are), while the embedded Seed, Trace, and Scratch fields are
// ignored — the campaign seeds episode i with BaseSeed+i, never records
// traces, and manages one arena per worker itself.
type CampaignOptions struct {
	Options

	// BaseSeed seeds episode i with BaseSeed+i.
	BaseSeed int64
	// Workers bounds the number of concurrent episode goroutines; 0
	// selects GOMAXPROCS.  Negative counts are rejected.
	Workers int
}

// RunCampaign simulates n episodes with master seeds BaseSeed,
// BaseSeed+1, …, BaseSeed+n−1, fanning the work across o.Workers
// goroutines.  episode runs one episode under the Options the campaign
// derives from o — seed BaseSeed+i, Trace off (a campaign's worth of
// traces would defeat the allocation-free hot path; run a single traced
// episode instead) and the worker's own scratch arena — and has the
// shape of campaign.EpisodeFunc, so any scenario's closed run loop plugs
// in.  Reusing an arena across a worker's episodes cannot perturb
// results: episodes are seed-deterministic with or without one (the
// parity tests assert bit identity).  Results are returned in seed order
// so campaigns of different agents over the same seeds are pairwise
// comparable (same C1 behaviour, same channel and sensor noise).
//
// episode is shared across workers, so its agent must be stateless across
// episodes (every agent in this repository is); per-episode state
// (filters, channels, drivers) lives in the engine the run loop builds.
// An invalid configuration surfaces as episode 0's error.
func RunCampaign(n int, o CampaignOptions, episode func(Options) (Result, error)) ([]Result, error) {
	if o.Workers < 0 {
		return nil, fmt.Errorf("sim: worker count %d must be >= 1 (0 selects GOMAXPROCS)", o.Workers)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: non-positive episode count %d", n)
	}
	results := make([]Result, n)
	errs := make([]error, n)
	var done atomic.Int64
	scratches := make([]*Scratch, resolveWorkers(o.Workers, n))
	for w := range scratches {
		scratches[w] = NewScratch()
	}
	parallelForWorkers(o.Workers, n, func(w, i int) {
		epo := o.Options
		epo.Seed = o.BaseSeed + int64(i)
		epo.Trace = false
		epo.Scratch = scratches[w]
		results[i], errs[i] = episode(epo)
		if o.Collector != nil {
			o.Collector.OnProgress(done.Add(1), int64(n))
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: episode %d: %w", i, err)
		}
	}
	return results, nil
}

// ParallelForWorkers runs f(0) … f(n−1) across the given number of
// goroutines (0 selects GOMAXPROCS) and waits for completion.  f must
// only write to index-disjoint state.
func ParallelForWorkers(workers, n int, f func(i int)) {
	parallelForWorkers(workers, n, func(_, i int) { f(i) })
}

// resolveWorkers applies the shared worker-count convention: 0 selects
// GOMAXPROCS, and the count never exceeds the task count.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// parallelForWorkers is ParallelForWorkers with the worker index
// (0 … effective workers−1) passed alongside the task index, so callers
// can keep per-worker scratch state without locking.
func parallelForWorkers(workers, n int, f func(worker, i int)) {
	workers = resolveWorkers(workers, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				f(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
