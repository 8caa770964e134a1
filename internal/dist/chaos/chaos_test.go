package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/dist"
	"safeplan/internal/disturb"
	"safeplan/internal/sim"
)

// synthEpisode mirrors the campaign test fixture: outcome is a pure
// function of the seed, so the differential gate isolates the protocol —
// any statistics difference is a distribution bug, not episode noise.
func synthEpisode(opts sim.Options) (sim.Result, error) {
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

func synthResolver(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
	if name != "synthetic" {
		return nil, nil, fmt.Errorf("chaos test: unknown workload %q", name)
	}
	return synthEpisode, nil, nil
}

type localConn struct{ c *dist.Coordinator }

func (l localConn) Do(req dist.Request) (dist.Response, error) { return l.c.Dispatch(req), nil }
func (l localConn) Close() error                               { return nil }

// gateSpec is the chaos gate's campaign: enough episodes over the full
// 64-shard plan that every protocol op fires many times per run.
func gateSpec() campaign.Spec {
	return campaign.Spec{Name: "chaos-gate", Episodes: 400, BaseSeed: 3}
}

// baseline computes the single-process reference statistics once.
var (
	baselineOnce  sync.Once
	baselineStats campaign.Stats
	baselineErr   error
)

func baseline(t *testing.T) campaign.Stats {
	t.Helper()
	baselineOnce.Do(func() {
		rep, err := campaign.Run(gateSpec(), synthEpisode)
		if err != nil {
			baselineErr = err
			return
		}
		baselineStats = rep.Stats
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineStats
}

func assertByteIdentical(t *testing.T, got campaign.Stats) {
	t.Helper()
	want := baseline(t)
	wraw, _ := json.Marshal(want)
	graw, _ := json.Marshal(got)
	if !bytes.Equal(wraw, graw) {
		t.Fatalf("stats diverged from single-process baseline:\nwant: %s\ngot:  %s", wraw, graw)
	}
}

func newCoordinator(t *testing.T, spec campaign.Spec) *dist.Coordinator {
	t.Helper()
	c, err := dist.NewCoordinator(dist.Config{
		Spec:       spec,
		Workload:   "synthetic",
		LeaseTTL:   50 * time.Millisecond,
		RetryAfter: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chaosWorker builds a worker config with fast, bounded retry math and
// the given fault script.
func chaosWorker(c *dist.Coordinator, id string, cfg Config) dist.WorkerConfig {
	return dist.WorkerConfig{
		ID:             id,
		Dial:           Dial(func() (dist.Conn, error) { return localConn{c}, nil }, cfg),
		Resolve:        synthResolver,
		HeartbeatEvery: 3,
		// Message-level faults can fail many round trips in a row; the
		// gate bounds retries high enough that injected loss cannot
		// starve a worker out, with sub-millisecond backoff to keep the
		// suite fast.
		MaxRetries: 200,
		Backoff:    dist.Backoff{Base: 100 * time.Microsecond, Cap: 2 * time.Millisecond},
	}
}

// TestChaosGateMessageFaults is the differential gate over message-level
// failure modes: for each scripted fault — lost requests, lost
// responses (processed-but-unacknowledged, the duplicate factory),
// duplicated requests, delay jitter with reordering-scale tails, burst
// loss on both legs, corrupted result payloads, and a kitchen-sink
// combination — two faulted workers must drive the campaign to final
// statistics byte-identical to the single-process baseline.
func TestChaosGateMessageFaults(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"drop-requests", Config{Request: disturb.IID{DropProb: 0.25}}},
		{"drop-responses", Config{Response: disturb.IID{DropProb: 0.25}}},
		{"dup-requests", Config{Request: disturb.Replay{Prob: 0.4}}},
		{"delay-jitter", Config{
			Request:  disturb.Jitter{Base: 0.02, Spread: 0.1, TailProb: 0.1, TailMean: 0.3},
			Response: disturb.Jitter{Base: 0.02, Spread: 0.1, TailProb: 0.1, TailMean: 0.3},
		}},
		{"burst-loss-both", Config{
			Request:  disturb.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, DropBad: 0.9},
			Response: disturb.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, DropBad: 0.9, StartBad: true},
		}},
		{"corrupt-sums", Config{CorruptSumProb: 0.3}},
		{"everything-at-once", Config{
			Request:        disturb.Replay{Inner: disturb.IID{DropProb: 0.15}, Prob: 0.2},
			Response:       disturb.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.4, DropBad: 0.8},
			CorruptSumProb: 0.2,
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			c := newCoordinator(t, gateSpec())
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				cfg := mode.cfg
				cfg.Seed = int64(1000*i) + 7
				wcfg := chaosWorker(c, fmt.Sprintf("chaos-%d", i), cfg)
				wg.Add(1)
				go func(i int, wcfg dist.WorkerConfig) {
					defer wg.Done()
					_, errs[i] = dist.RunWorker(wcfg)
				}(i, wcfg)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			got, err := c.WaitResult()
			if err != nil {
				t.Fatal(err)
			}
			assertByteIdentical(t, got)
		})
	}
}

// TestChaosGateWorkerKill: a worker is killed mid-shard at a scripted
// episode while a sibling keeps running; a replacement rejoins from the
// victim's checkpoint.  Final statistics must not show a trace of any of
// it.  The survivor starts only once the victim has run its first
// episode, so the victim holds shard 0 (7 episodes at 400/64) and the
// kill after its 5th episode always lands inside it.
func TestChaosGateWorkerKill(t *testing.T) {
	c := newCoordinator(t, gateSpec())
	ckpt := filepath.Join(t.TempDir(), "victim.json")

	var wg sync.WaitGroup
	var survivorErr error
	var startSurvivor sync.Once
	kill := KillAfter(5)
	victim := chaosWorker(c, "victim", Config{})
	victim.CheckpointPath = ckpt
	victim.AfterEpisode = func(shard, next int) error {
		startSurvivor.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, survivorErr = dist.RunWorker(chaosWorker(c, "survivor", Config{Request: disturb.IID{DropProb: 0.1}}))
			}()
		})
		return kill(shard, next)
	}
	if _, err := dist.RunWorker(victim); !errors.Is(err, ErrInjected) {
		t.Fatalf("victim survived its kill script: %v", err)
	}

	// The victim's lease must expire before its shard is grantable again.
	time.Sleep(60 * time.Millisecond)

	revived := chaosWorker(c, "revived", Config{})
	revived.CheckpointPath = ckpt
	if _, err := dist.RunWorker(revived); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if survivorErr != nil {
		t.Fatal(survivorErr)
	}
	got, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, got)
}

// TestChaosGateCorruptCheckpoint: the victim's on-disk checkpoint is
// corrupted (torn or bit-flipped, seed-swept) between its crash and the
// replacement's start.  The replacement must detect the damage, discard
// it, recompute — and the final statistics must still be byte-identical.
// Never a panic, never silently wrong stats.
func TestChaosGateCorruptCheckpoint(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			spec := gateSpec()
			spec.Shards = 4 // fewer, bigger shards: the recompute is visible
			c, err := dist.NewCoordinator(dist.Config{
				Spec: spec, Workload: "synthetic",
				LeaseTTL: 30 * time.Millisecond, RetryAfter: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "victim.json")

			victim := chaosWorker(c, "victim", Config{})
			victim.CheckpointPath = ckpt
			victim.AfterEpisode = KillAfter(20)
			if _, err := dist.RunWorker(victim); !errors.Is(err, ErrInjected) {
				t.Fatalf("victim survived: %v", err)
			}
			if err := CorruptFile(ckpt, seed); err != nil {
				t.Fatal(err)
			}
			time.Sleep(40 * time.Millisecond)

			revived := chaosWorker(c, "revived", Config{})
			revived.CheckpointPath = ckpt
			sum, err := dist.RunWorker(revived)
			if err != nil {
				t.Fatal(err)
			}
			// A corrupt checkpoint may never be resumed from: the
			// checkpoint checksum classifies both structural damage and
			// value-level flips (which still parse as JSON) as corrupt.
			// The binding assertion is on the final statistics.
			got, err := c.WaitResult()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := campaign.Run(spec, synthEpisode)
			if err != nil {
				t.Fatal(err)
			}
			wraw, _ := json.Marshal(rep.Stats)
			graw, _ := json.Marshal(got)
			if !bytes.Equal(wraw, graw) {
				t.Fatalf("seed %d: stats diverged after checkpoint corruption (resumed=%v):\nwant: %s\ngot:  %s",
					seed, sum.Resumed, wraw, graw)
			}
		})
	}
}

// TestChaosConnCountersFire sanity-checks that the fault scripts above
// actually injected faults (a gate that injects nothing proves nothing).
func TestChaosConnCountersFire(t *testing.T) {
	spec := gateSpec()
	c := newCoordinator(t, spec)
	inner := localConn{c}
	conn := Wrap(inner, Config{
		Request:        disturb.IID{DropProb: 0.5},
		Response:       disturb.IID{DropProb: 0.5},
		CorruptSumProb: 1,
		Seed:           11,
	})
	fp := spec.Fingerprint()
	drops := 0
	for i := 0; i < 200; i++ {
		if _, err := conn.Do(dist.Request{Op: dist.OpHello, Worker: "probe", Fingerprint: &fp}); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected transport error: %v", err)
			}
			drops++
		}
	}
	if conn.DroppedRequests == 0 || conn.DroppedResponses == 0 || drops == 0 {
		t.Fatalf("drop script never fired: %+v", conn)
	}
	agg := &campaign.ShardStats{}
	lo, _ := spec.ShardRange(0)
	if err := campaign.RunShard(spec, synthEpisode, 0, lo, agg, nil); err != nil {
		t.Fatal(err)
	}
	req := dist.Request{Op: dist.OpResult, Worker: "probe", Fingerprint: &fp, Shard: 0, Stats: agg, Sum: dist.ShardSum(agg)}
	sawBadSum := false
	for i := 0; i < 50 && !sawBadSum; i++ {
		resp, err := conn.Do(req)
		if err != nil {
			continue
		}
		if resp.Reason == dist.ReasonBadSum {
			sawBadSum = true
		}
	}
	if !sawBadSum || conn.CorruptedSums == 0 {
		t.Fatalf("sum corruption never rejected: corrupted=%d", conn.CorruptedSums)
	}
}

// TestCorruptFileShapes: every corruption seed really changes the file,
// and the checkpoint loader classifies the damage as corrupt (or, for a
// lucky value-preserving flip, loads the intact resume point) — it must
// never panic.
func TestCorruptFileShapes(t *testing.T) {
	spec := gateSpec()
	fp := spec.Fingerprint()
	want := campaign.Checkpoint{Partial: &campaign.PartialShard{
		Shard: 1, NextEpisode: 9, Stats: &campaign.ShardStats{Episodes: 2, Reached: 2},
	}}
	for seed := int64(0); seed < 20; seed++ {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := campaign.SaveCheckpoint(path, fp, want); err != nil {
			t.Fatal(err)
		}
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := CorruptFile(path, seed); err != nil {
			t.Fatal(err)
		}
		damaged, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: loader panicked on corrupt checkpoint: %v", seed, r)
				}
			}()
			ck, err := campaign.LoadCheckpoint(path, fp)
			if bytes.Equal(pristine, damaged) {
				return // the truncation landed at full length: no damage
			}
			switch {
			case err == nil:
				// Only content-preserving damage (a flip in JSON
				// whitespace) may load cleanly — the checksum rejects any
				// flip that changes a decoded value.
				if !reflect.DeepEqual(ck, want) {
					t.Fatalf("seed %d: corrupted values loaded as clean: %+v", seed, ck.Partial)
				}
			case errors.Is(err, campaign.ErrCorruptCheckpoint):
			case strings.Contains(err.Error(), "belongs to campaign"):
				// An intact file of another campaign is the one other
				// loud outcome.
			default:
				t.Fatalf("seed %d: unclassified corruption outcome: %v", seed, err)
			}
		}()
	}
}

// KillAfter builds a dist worker AfterEpisode hook that crashes the
// worker after it has run n episodes (across shards), leaving whatever
// mid-shard state exists on disk — the kill-worker-at-step-N injection.
func KillAfter(n int) func(shard, next int) error {
	ran := 0
	return func(shard, next int) error {
		ran++
		if ran >= n {
			return fmt.Errorf("%w: worker killed after %d episodes (shard %d, next %d)", ErrInjected, ran, shard, next)
		}
		return nil
	}
}

// CorruptFile damages a file on disk in a seed-selected way — truncation
// or a bit flip — simulating a torn write or media corruption under a
// crashed worker.  Checkpoint loaders must detect the damage
// (campaign.ErrCorruptCheckpoint) and recompute, never fold the bytes.
func CorruptFile(path string, seed int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	switch {
	case len(raw) == 0 || rng.Intn(2) == 0:
		raw = raw[:rng.Intn(len(raw)+1)] // torn write: cut at a random offset
	default:
		raw[rng.Intn(len(raw))] ^= 1 << uint(rng.Intn(8)) // media bit flip
	}
	return os.WriteFile(path, raw, 0o644)
}
