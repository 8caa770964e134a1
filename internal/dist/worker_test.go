package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/sim"
)

// assertStatsIdentical compares two campaign Stats at the byte level —
// the distributed tier's contract is byte-identity, not approximate
// equality, so the comparison is on the serialized form the reports and
// goldens use.
func assertStatsIdentical(t *testing.T, want, got campaign.Stats) {
	t.Helper()
	wraw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	graw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wraw, graw) {
		t.Fatalf("stats differ byte-for-byte:\nwant: %s\ngot:  %s", wraw, graw)
	}
}

// localConn answers requests straight from a coordinator — the
// in-process transport for tests (and the base the chaos transport
// wraps).
type localConn struct{ c *Coordinator }

func (l localConn) Do(req Request) (Response, error) { return l.c.Dispatch(req), nil }
func (l localConn) Close() error                     { return nil }

func localDial(c *Coordinator) func() (Conn, error) {
	return func() (Conn, error) { return localConn{c}, nil }
}

// runWorkers runs n workers concurrently against the coordinator and
// fails on any worker error.
func runWorkers(t *testing.T, c *Coordinator, n int, customize func(i int, cfg *WorkerConfig)) []WorkerSummary {
	t.Helper()
	sums := make([]WorkerSummary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{
			ID:             fmt.Sprintf("w%d", i),
			Dial:           localDial(c),
			Resolve:        synthResolver,
			HeartbeatEvery: 5,
		}
		if customize != nil {
			customize(i, &cfg)
		}
		wg.Add(1)
		go func(i int, cfg WorkerConfig) {
			defer wg.Done()
			sums[i], errs[i] = RunWorker(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return sums
}

// TestDistByteIdenticalClean is the no-failure differential gate: three
// workers pulling shards from a coordinator produce final statistics
// byte-identical to single-process campaign.Run, for both a plain and a
// counting-mode (invariant-tallying) campaign.
func TestDistByteIdenticalClean(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		counting bool
	}{
		{"plain", "synthetic", false},
		{"counting", "synthetic-counting", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := campaign.Spec{Name: "dist-" + tc.name, Episodes: 800, BaseSeed: 3}
			if tc.counting {
				spec.Invariants = []sim.Invariant{collisionInvariant{}}
				spec.CountViolations = true
			}
			c, err := NewCoordinator(Config{Spec: spec, Workload: tc.workload, RetryAfter: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			sums := runWorkers(t, c, 3, nil)
			got, err := c.WaitResult()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := campaign.Run(spec, synthEpisode)
			if err != nil {
				t.Fatal(err)
			}
			assertStatsIdentical(t, rep.Stats, got)
			if tc.counting && got.InvariantViolations["test-no-collision"] == 0 {
				t.Fatal("counting campaign carried no violations across the wire")
			}
			total := 0
			for _, s := range sums {
				total += s.ShardsCompleted
			}
			if total < spec.NumShards() {
				t.Fatalf("workers completed %d shards, campaign has %d", total, spec.NumShards())
			}
		})
	}
}

// TestWorkerCrashCheckpointResume is the kill-and-rejoin story: a worker
// crashes mid-shard (the AfterEpisode seam), a replacement with the same
// checkpoint path waits out the dead lease, resumes at the exact episode
// the checkpoint recorded, and the finished campaign is byte-identical
// to an undisturbed single-process run.  The coordinator runs on a fake
// clock, so only the explicit Advance expires a lease.
func TestWorkerCrashCheckpointResume(t *testing.T) {
	spec := campaign.Spec{Name: "crash-resume", Episodes: 60, BaseSeed: 3, Shards: 3}
	clock := NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(Config{
		Spec: spec, Workload: "synthetic",
		LeaseTTL: 50 * time.Millisecond, RetryAfter: 5 * time.Millisecond, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "worker.json")

	crash := errors.New("injected crash")
	_, err = RunWorker(WorkerConfig{
		ID: "doomed", Dial: localDial(c), Resolve: synthResolver,
		CheckpointPath: ckpt,
		AfterEpisode: func(shard, next int) error {
			if next == 7 {
				return crash
			}
			return nil
		},
	})
	if !errors.Is(err, crash) {
		t.Fatalf("crashed worker returned %v", err)
	}
	ck, err := campaign.LoadCheckpoint(ckpt, spec.Fingerprint())
	if err != nil || ck.Partial == nil {
		t.Fatalf("no resume point after crash: %+v %v", ck, err)
	}
	if p := ck.Partial; p.Shard != 0 || p.NextEpisode != 6 || len(ck.Shards) != 0 {
		// The crash fired before episode 7's checkpoint was written, so
		// the durable resume point is the previous episode boundary.
		t.Fatalf("resume point %+v, want shard 0 next 6 and no completed shards", ck)
	}

	// The dead worker's lease must expire before the shard is grantable.
	clock.Advance(60 * time.Millisecond)

	sum, err := RunWorker(WorkerConfig{
		ID: "revived", Dial: localDial(c), Resolve: synthResolver,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Resumed {
		t.Fatalf("replacement did not resume from the checkpoint: %+v", sum)
	}
	// Shard 0 resumes at episode 6 (14 to run) plus shards 1 and 2 in
	// full: recomputing from scratch would show 60.
	if sum.EpisodesRun != 14+20+20 {
		t.Fatalf("replacement ran %d episodes, want 54 (mid-shard resume)", sum.EpisodesRun)
	}
	got, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, synthEpisode)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, rep.Stats, got)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up after completion: %v", err)
	}
}

// TestWorkerDiscardsCorruptCheckpoint: a torn or garbage resume file is
// discarded (recompute, never fold suspect bytes), while a checkpoint
// from a different campaign fails loudly instead.
func TestWorkerDiscardsCorruptCheckpoint(t *testing.T) {
	spec := campaign.Spec{Name: "corrupt-ck", Episodes: 40, BaseSeed: 3, Shards: 2}
	ckpt := filepath.Join(t.TempDir(), "worker.json")
	if err := os.WriteFile(ckpt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Spec: spec, Workload: "synthetic", RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunWorker(WorkerConfig{
		ID: "w", Dial: localDial(c), Resolve: synthResolver, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed || sum.EpisodesRun != 40 {
		t.Fatalf("worker must recompute after discarding corruption: %+v", sum)
	}
	got, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, synthEpisode)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, rep.Stats, got)

	// Wrong-campaign checkpoint: the worker fails loudly, with a distinct
	// error, and leaves the file alone.
	other := spec
	other.BaseSeed = 99
	if err := campaign.SaveCheckpoint(ckpt, other.Fingerprint(), campaign.Checkpoint{
		Partial: &campaign.PartialShard{Shard: 0, NextEpisode: 5, Stats: &campaign.ShardStats{Episodes: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCoordinator(Config{Spec: spec, Workload: "synthetic", RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunWorker(WorkerConfig{
		ID: "w", Dial: localDial(c2), Resolve: synthResolver, CheckpointPath: ckpt,
	})
	if err == nil || errors.Is(err, campaign.ErrCorruptCheckpoint) || !strings.Contains(err.Error(), "belongs to campaign") {
		t.Fatalf("wrong-campaign checkpoint: %v, want a distinct fingerprint error", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("wrong-campaign checkpoint removed: %v", err)
	}
}

// flakyDial fails whole connection attempts before finally handing out a
// working transport — the coordinator-restart/network-partition shape of
// failure, distinct from per-message chaos.
func flakyDial(c *Coordinator, failures int) func() (Conn, error) {
	var mu sync.Mutex
	return func() (Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			return nil, errors.New("connection refused (injected)")
		}
		return localConn{c}, nil
	}
}

// TestWorkerRetriesDialUnderBackoff: a worker facing dial failures keeps
// retrying under its jittered backoff and completes once the coordinator
// is reachable; retry telemetry reaches the coordinator's counters.
func TestWorkerRetriesDialUnderBackoff(t *testing.T) {
	spec := campaign.Spec{Name: "flaky-dial", Episodes: 40, BaseSeed: 3, Shards: 2}
	c, err := NewCoordinator(Config{Spec: spec, Workload: "synthetic", RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunWorker(WorkerConfig{
		ID: "w", Dial: flakyDial(c, 3), Resolve: synthResolver,
		Backoff: Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Retries != 3 {
		t.Fatalf("worker recorded %d retries, want 3", sum.Retries)
	}
	if ctr := c.Counters(); ctr.WorkerRetries != 3 {
		t.Fatalf("coordinator saw %d worker retries, want 3", ctr.WorkerRetries)
	}
	if _, err := c.WaitResult(); err != nil {
		t.Fatal(err)
	}

	// Exhausting MaxRetries is a clean, reported failure — not a hang.
	c2, err := NewCoordinator(Config{Spec: spec, Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunWorker(WorkerConfig{
		ID: "unlucky", Dial: flakyDial(c2, 1000), Resolve: synthResolver, MaxRetries: 3,
		Backoff: Backoff{Base: time.Microsecond, Cap: 2 * time.Microsecond},
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable after 3 retries") {
		t.Fatalf("retry exhaustion: %v", err)
	}
}

// TestWorkerRejectsWorkloadSkew: a worker whose registry cannot resolve
// the campaign's workload fails loudly instead of computing something
// else.
func TestWorkerRejectsWorkloadSkew(t *testing.T) {
	spec := campaign.Spec{Name: "skew", Episodes: 40, BaseSeed: 3, Shards: 2}
	c, err := NewCoordinator(Config{Spec: spec, Workload: "not-in-any-registry"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunWorker(WorkerConfig{ID: "w", Dial: localDial(c), Resolve: synthResolver})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("workload skew: %v", err)
	}
}

// TestServerTCPEndToEnd runs the real wire path — TCP listener, JSON
// lines, DialTCP workers — plus the /metrics and /healthz surfaces, and
// holds the result to the same byte-identity bar.
func TestServerTCPEndToEnd(t *testing.T) {
	spec := campaign.Spec{Name: "tcp-e2e", Episodes: 400, BaseSeed: 3}
	c, err := NewCoordinator(Config{Spec: spec, Workload: "synthetic", RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("healthz before completion: %d", rr.Code)
	}

	addr := ln.Addr().String()
	runWorkers(t, c, 2, func(i int, cfg *WorkerConfig) {
		cfg.Dial = func() (Conn, error) { return DialTCP(addr) }
	})
	got, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, synthEpisode)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, rep.Stats, got)

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("metrics: %d", rr.Code)
	}
	var payload struct {
		Campaign CampaignInfo `json:"campaign"`
		Counters Counters     `json:"counters"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics payload: %v\n%s", err, rr.Body.Bytes())
	}
	if !payload.Counters.Complete || payload.Counters.ShardsDone != int64(spec.NumShards()) {
		t.Fatalf("metrics counters %+v", payload.Counters)
	}
	if payload.Campaign.Workload != "synthetic" {
		t.Fatalf("metrics campaign %+v", payload.Campaign)
	}

	// A finished coordinator reports not-ready so orchestrators stop
	// sending workers.
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 {
		t.Fatalf("healthz after completion: %d", rr.Code)
	}
}
