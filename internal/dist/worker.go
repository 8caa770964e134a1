package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/sim"
	"safeplan/internal/wire"
)

// Conn is one request/response protocol transport.  The TCP form is
// DialTCP; tests substitute in-process transports, and the chaos harness
// wraps either with fault injection.
type Conn interface {
	// Do performs one round trip.  Any error means the transport is
	// suspect; the worker closes it, redials, and retries under backoff.
	Do(Request) (Response, error)
	Close() error
}

// DialTCP connects a worker transport to a coordinator address: the
// production transport, the worker protocol over TCP.
func DialTCP(addr string) (Conn, error) {
	c, err := wire.Dial[Request, Response](addr)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Resolver turns a coordinator's workload name into the episode function
// and invariant set, via the worker's own registry (in production
// internal/workloads' Resolver, which names every cmd/bench row and
// smoke case and every study cell; synthetic fixtures in tests).  Both
// sides constructing from the same name is what keeps remote episodes
// byte-identical to local ones.
type Resolver func(workload string) (campaign.EpisodeFunc, []sim.Invariant, error)

// Default worker cadences.
const (
	// DefaultHeartbeatEvery renews the lease after this many episodes.
	DefaultHeartbeatEvery = 16
	// DefaultMaxRetries bounds consecutive transport failures before the
	// worker gives up on the coordinator.
	DefaultMaxRetries = 8
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// ID names the worker in leases and telemetry.  Required.
	ID string
	// Dial opens a transport to the coordinator; the worker redials
	// after any transport error.  Required.
	Dial func() (Conn, error)
	// Resolve maps the campaign's workload name to episode + invariants.
	// Required.
	Resolve Resolver

	// CheckpointPath, when set, persists a mid-shard resume point after
	// every episode (campaign.Checkpoint.Partial) so a restarted worker
	// continues at the exact episode it left off.
	CheckpointPath string

	// HeartbeatEvery renews the lease after this many episodes; 0
	// selects DefaultHeartbeatEvery.
	HeartbeatEvery int

	// MaxRetries bounds consecutive transport failures (each retried
	// under jittered exponential backoff); 0 selects DefaultMaxRetries.
	MaxRetries int
	// Backoff shapes the retry delays.  Backoff.Rng nil derives a stream
	// from the worker ID, so two workers on one host never phase-lock.
	Backoff Backoff

	// Clock injects time for backoff and wait sleeps; nil selects
	// RealClock.
	Clock Clock

	// AfterEpisode, when non-nil, runs after every folded episode with
	// the shard and the next episode index — the chaos harness's crash
	// seam.  A non-nil return abandons the shard and fails the worker
	// with that error, mid-shard state on disk, exactly like a crash.
	AfterEpisode func(shard, next int) error
}

// WorkerSummary is what a worker accomplished before exiting.
type WorkerSummary struct {
	// ShardsCompleted counts results this worker got accepted (benign
	// duplicates included — the shard is complete either way).
	ShardsCompleted int
	// EpisodesRun counts episodes actually executed here (resumed
	// episodes are not re-run, so they don't count).
	EpisodesRun int
	// Retries counts transport round trips that failed and were retried.
	Retries int64
	// Resumed reports whether a mid-shard checkpoint was used.
	Resumed bool
	// LeasesLost counts shards abandoned because the lease expired.
	LeasesLost int
}

// errLeaseLost aborts RunShard from the heartbeat when the coordinator
// reassigned the shard; the worker abandons it and leases another.
var errLeaseLost = errors.New("dist: lease lost")

// worker is RunWorker's loop state.
type worker struct {
	cfg     WorkerConfig
	clock   Clock
	conn    Conn
	fp      campaign.Fingerprint
	backoff Backoff
	sum     WorkerSummary
}

// RunWorker joins a coordinator, leases shards until the campaign
// completes (or the coordinator drains), and returns what it did.  It
// survives transport failures by redialing under jittered exponential
// backoff, abandons shards whose lease it loses, and — with a
// CheckpointPath — resumes a crashed shard mid-way, byte-identically.
func RunWorker(cfg WorkerConfig) (WorkerSummary, error) {
	if cfg.ID == "" || cfg.Dial == nil || cfg.Resolve == nil {
		return WorkerSummary{}, fmt.Errorf("dist: worker needs ID, Dial, and Resolve")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	w := &worker{cfg: cfg, clock: cfg.Clock, backoff: cfg.Backoff}
	if w.backoff.Rng == nil {
		// Derive the jitter stream from the worker ID: deterministic per
		// worker, distinct across workers.
		h := fnv.New64a()
		h.Write([]byte(cfg.ID))
		w.backoff.Rng = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	defer func() {
		if w.conn != nil {
			w.conn.Close()
		}
	}()
	err := w.run()
	return w.sum, err
}

// rpc performs one round trip, redialing and retrying on transport
// errors under backoff.  Protocol-level rejections (OK=false) are NOT
// retried here — they are answers, returned to the caller.
func (w *worker) rpc(req Request) (Response, error) {
	req.Worker = w.cfg.ID
	req.Retries = w.sum.Retries
	for {
		if w.conn == nil {
			conn, err := w.cfg.Dial()
			if err != nil {
				if rerr := w.retryDelay(fmt.Errorf("dial: %w", err)); rerr != nil {
					return Response{}, rerr
				}
				continue
			}
			w.conn = conn
		}
		resp, err := w.conn.Do(req)
		if err != nil {
			w.conn.Close()
			w.conn = nil
			if rerr := w.retryDelay(err); rerr != nil {
				return Response{}, rerr
			}
			continue
		}
		w.backoff.Reset()
		return resp, nil
	}
}

// retryDelay books one failed round trip and sleeps the next backoff
// delay, or reports retry exhaustion.
func (w *worker) retryDelay(cause error) error {
	if w.backoff.Attempt() >= w.cfg.MaxRetries {
		return fmt.Errorf("dist: worker %s: coordinator unreachable after %d retries: %w",
			w.cfg.ID, w.cfg.MaxRetries, cause)
	}
	w.sum.Retries++
	w.clock.Sleep(w.backoff.Next())
	return nil
}

func (w *worker) run() error {
	// Join: learn the campaign, rebuild its spec locally, and verify the
	// two sides agree on the fingerprint before touching any shard.
	hello, err := w.rpc(Request{Op: OpHello})
	if err != nil {
		return err
	}
	if !hello.OK || hello.Campaign == nil {
		return fmt.Errorf("dist: worker %s: hello rejected: %s (%s)", w.cfg.ID, hello.Error, hello.Reason)
	}
	info := *hello.Campaign
	episode, invs, err := w.cfg.Resolve(info.Workload)
	if err != nil {
		w.rpc(Request{Op: OpBye}) // best effort; the lease TTL covers us anyway
		return fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
	}
	spec := campaign.Spec{
		Name:            info.Name,
		Episodes:        info.Episodes,
		BaseSeed:        info.BaseSeed,
		Shards:          info.Shards,
		Invariants:      invs,
		CountViolations: info.CountViolations,
	}
	if got := spec.Fingerprint(); got != info.Fingerprint {
		return fmt.Errorf("dist: worker %s: rebuilt spec fingerprint %+v does not match coordinator %+v",
			w.cfg.ID, got, info.Fingerprint)
	}
	w.fp = info.Fingerprint

	// Resume: a mid-shard checkpoint names the shard to ask for first.
	var ck *campaign.PartialShard
	if w.cfg.CheckpointPath != "" {
		loaded, err := campaign.LoadCheckpoint(w.cfg.CheckpointPath, w.fp)
		if errors.Is(err, campaign.ErrCorruptCheckpoint) {
			// Corrupt on disk: discard and recompute.  Correctness never
			// depends on the checkpoint, only restart cost does.
			os.Remove(w.cfg.CheckpointPath)
			err = nil
		}
		if err != nil {
			return fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
		}
		ck = loaded.Partial
	}

	for {
		req := Request{Op: OpLease, Fingerprint: &w.fp}
		if ck != nil {
			shard := ck.Shard
			req.Prefer = &shard
		}
		lease, err := w.rpc(req)
		if err != nil {
			return err
		}
		switch {
		case !lease.OK:
			return fmt.Errorf("dist: worker %s: lease rejected: %s (%s)", w.cfg.ID, lease.Error, lease.Reason)
		case lease.Done:
			w.rpc(Request{Op: OpBye})
			return nil
		case lease.Wait:
			w.clock.Sleep(time.Duration(lease.RetryMS) * time.Millisecond)
			continue
		case lease.Assign == nil:
			return fmt.Errorf("dist: worker %s: lease response carries no assignment", w.cfg.ID)
		}
		a := *lease.Assign
		if ck != nil && ck.Shard != a.Shard {
			// The checkpointed shard was granted elsewhere (or already
			// finished): the resume point is stale.  Drop it now so this
			// shard's own mid-run checkpoints can't be mistaken for it.
			w.dropCheckpoint()
			ck = nil
		}
		if err := w.runShard(spec, episode, a, ck); err != nil {
			if errors.Is(err, errLeaseLost) {
				w.sum.LeasesLost++
				w.dropCheckpoint()
				ck = nil
				continue
			}
			return err
		}
		ck = nil
	}
}

// runShard executes one leased shard — resuming from a matching
// checkpoint, whose next episode the loader has checked against the
// shard's range — and submits its aggregate.
func (w *worker) runShard(spec campaign.Spec, episode campaign.EpisodeFunc, a Assignment, ck *campaign.PartialShard) error {
	agg := &campaign.ShardStats{}
	from := a.Lo
	if ck != nil && ck.Shard == a.Shard {
		agg = ck.Stats
		from = ck.NextEpisode
		w.sum.Resumed = true
	}
	sinceBeat := 0
	err := campaign.RunShard(spec, episode, a.Shard, from, agg, func(next int) error {
		w.sum.EpisodesRun++
		if w.cfg.AfterEpisode != nil {
			if err := w.cfg.AfterEpisode(a.Shard, next); err != nil {
				return err
			}
		}
		if w.cfg.CheckpointPath != "" {
			if err := campaign.SaveCheckpoint(w.cfg.CheckpointPath, w.fp, campaign.Checkpoint{
				Partial: &campaign.PartialShard{Shard: a.Shard, NextEpisode: next, Stats: agg},
			}); err != nil {
				return err
			}
		}
		if sinceBeat++; sinceBeat >= w.cfg.HeartbeatEvery && next < a.Hi {
			sinceBeat = 0
			beat, err := w.rpc(Request{Op: OpRenew, Fingerprint: &w.fp, Shard: a.Shard, EpisodesDone: agg.Episodes})
			if err != nil {
				return err
			}
			if !beat.OK {
				if beat.Reason == ReasonLeaseLost {
					return errLeaseLost
				}
				return fmt.Errorf("dist: worker %s: renew shard %d: %s (%s)", w.cfg.ID, a.Shard, beat.Error, beat.Reason)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Submit until the coordinator durably has the shard.  A bad-sum
	// rejection (in-flight corruption) resubmits; a benign duplicate is
	// success; a mismatch or poisoning is fatal.
	for {
		resp, err := w.rpc(Request{Op: OpResult, Fingerprint: &w.fp, Shard: a.Shard, Stats: agg, Sum: ShardSum(agg)})
		if err != nil {
			return err
		}
		if resp.OK {
			w.sum.ShardsCompleted++
			w.dropCheckpoint()
			return nil
		}
		if resp.Reason == ReasonBadSum {
			w.sum.Retries++
			w.clock.Sleep(w.backoff.Next())
			continue
		}
		return fmt.Errorf("dist: worker %s: result for shard %d rejected: %s (%s)", w.cfg.ID, a.Shard, resp.Error, resp.Reason)
	}
}

// dropCheckpoint removes the mid-shard resume file once its shard is
// submitted or abandoned.
func (w *worker) dropCheckpoint() {
	if w.cfg.CheckpointPath != "" {
		os.Remove(w.cfg.CheckpointPath)
	}
}
