package dist

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/sim"
)

// synthEpisode mirrors the campaign package's synthetic fixture: outcome
// and score are pure functions of the seed, so shard aggregates are
// reproducible anywhere — exactly the property the distributed tier
// transports.
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

// collisionInvariant flags collided episodes, giving counting-mode runs a
// nonzero invariant_violations map to carry across the wire.
type collisionInvariant struct{}

func (collisionInvariant) Name() string                  { return "test-no-collision" }
func (collisionInvariant) CheckStep(*sim.StepInfo) error { return nil }
func (collisionInvariant) CheckEpisode(r *sim.Result) error {
	if r.Collided {
		return fmt.Errorf("collided")
	}
	return nil
}

func synthResolver(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
	switch name {
	case "synthetic":
		return synthEpisode, nil, nil
	case "synthetic-counting":
		return synthEpisode, []sim.Invariant{collisionInvariant{}}, nil
	}
	return nil, nil, fmt.Errorf("dist test: unknown workload %q", name)
}

// synthSpec builds the test campaign matching a resolver workload.
func synthSpec(name string, episodes, shards int) (campaign.Spec, string) {
	workload := "synthetic"
	spec := campaign.Spec{Name: name, Episodes: episodes, BaseSeed: 3, Shards: shards}
	return spec, workload
}

// shardAggregate computes one shard's aggregate the way a worker would.
func shardAggregate(t *testing.T, spec campaign.Spec, shard int) *campaign.ShardStats {
	t.Helper()
	agg := &campaign.ShardStats{}
	lo, _ := spec.ShardRange(shard)
	if err := campaign.RunShard(spec, synthEpisode, shard, lo, agg, nil); err != nil {
		t.Fatal(err)
	}
	return agg
}

func leaseReq(worker string, fp campaign.Fingerprint) Request {
	return Request{Op: OpLease, Worker: worker, Fingerprint: &fp}
}

func resultReq(worker string, fp campaign.Fingerprint, shard int, agg *campaign.ShardStats) Request {
	return Request{Op: OpResult, Worker: worker, Fingerprint: &fp, Shard: shard, Stats: agg, Sum: ShardSum(agg)}
}

// TestCoordinatorLeaseExpiryReassignment drives the full crash story
// with a fake clock: worker A leases a shard and goes silent, the lease
// expires, the shard is reassigned to B, A's stale renewal is refused —
// and when A's late result arrives anyway it is accepted (the bytes are
// deterministic, so they are the right bytes), with B's eventual copy
// acknowledged as a benign duplicate.
func TestCoordinatorLeaseExpiryReassignment(t *testing.T) {
	spec, workload := synthSpec("lease-expiry", 40, 4)
	fp := spec.Fingerprint()
	fc := NewFakeClock(time.Unix(0, 0))
	c, err := NewCoordinator(Config{Spec: spec, Workload: workload, LeaseTTL: time.Second, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}

	la := c.Dispatch(leaseReq("A", fp))
	if !la.OK || la.Assign == nil || la.Assign.Shard != 0 {
		t.Fatalf("A's first lease: %+v", la)
	}

	// Before expiry the shard must NOT be reassigned: B gets shard 1.
	if lb := c.Dispatch(leaseReq("B", fp)); lb.Assign == nil || lb.Assign.Shard != 1 {
		t.Fatalf("B leased %+v while A's lease was live", lb.Assign)
	}

	// A renews in time; the lease extends from the renewal instant.
	fc.Advance(900 * time.Millisecond)
	if r := c.Dispatch(Request{Op: OpRenew, Worker: "A", Fingerprint: &fp, Shard: 0}); !r.OK {
		t.Fatalf("in-time renewal refused: %+v", r)
	}
	fc.Advance(900 * time.Millisecond)
	if n := c.ExpireLeases(); n != 1 {
		// B's shard-1 lease (granted 1.8s ago, TTL 1s) expires; A's
		// renewed shard-0 lease (0.9s old) survives.
		t.Fatalf("expired %d leases, want 1 (B's)", n)
	}

	// Now A goes silent past its TTL.
	fc.Advance(1100 * time.Millisecond)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1 (A's)", n)
	}

	// B asks again: shard 0 (lowest pending) comes back — a reassignment.
	lb := c.Dispatch(leaseReq("B", fp))
	if lb.Assign == nil || lb.Assign.Shard != 0 {
		t.Fatalf("reassignment gave B %+v, want shard 0", lb.Assign)
	}

	// A's stale renewal is refused with the machine-readable reason.
	if r := c.Dispatch(Request{Op: OpRenew, Worker: "A", Fingerprint: &fp, Shard: 0}); r.OK || r.Reason != ReasonLeaseLost {
		t.Fatalf("stale renewal: %+v, want %s", r, ReasonLeaseLost)
	}

	// A was slow, not wrong: its late shard-0 result still folds.
	agg := shardAggregate(t, spec, 0)
	if r := c.Dispatch(resultReq("A", fp, 0, agg)); !r.OK {
		t.Fatalf("late result refused: %+v", r)
	}
	// B finishes the same shard: same bytes, benign duplicate.
	if r := c.Dispatch(resultReq("B", fp, 0, shardAggregate(t, spec, 0))); !r.OK || !r.Duplicate {
		t.Fatalf("duplicate result: %+v, want OK duplicate", r)
	}

	ctr := c.Counters()
	if ctr.LeasesExpired != 2 || ctr.Reassignments != 1 || ctr.ResultsLate != 1 ||
		ctr.ResultsDuplicate != 1 || ctr.ResultsAccepted != 1 || ctr.LeasesRenewed != 1 {
		t.Fatalf("counters %+v", ctr)
	}
}

// TestCoordinatorMismatchPoisons: a duplicate result whose bytes differ
// from the accepted ones is a determinism violation — the campaign fails
// loudly and permanently rather than folding either copy.
func TestCoordinatorMismatchPoisons(t *testing.T) {
	spec, workload := synthSpec("mismatch", 40, 4)
	fp := spec.Fingerprint()
	c, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Dispatch(resultReq("A", fp, 0, shardAggregate(t, spec, 0))); !r.OK {
		t.Fatalf("first result refused: %+v", r)
	}
	// Same episode count, different content: a plausible-but-wrong copy.
	bad := shardAggregate(t, spec, 0)
	bad.Reached--
	bad.Timeouts++
	r := c.Dispatch(resultReq("B", fp, 0, bad))
	if r.OK || r.Reason != ReasonStatsMismatch {
		t.Fatalf("mismatched duplicate: %+v, want %s", r, ReasonStatsMismatch)
	}
	if c.Failed() == nil {
		t.Fatal("campaign not poisoned after mismatch")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done() open after poisoning")
	}
	if _, err := c.WaitResult(); err == nil {
		t.Fatal("WaitResult succeeded on a poisoned campaign")
	}
	// Every later request fails closed.
	if l := c.Dispatch(leaseReq("C", fp)); l.OK {
		t.Fatalf("lease granted on poisoned campaign: %+v", l)
	}
}

// TestCoordinatorRejectsBadInput covers the protocol guard rails: wrong
// fingerprint, corrupted payload (bad sum), wrong episode coverage, and
// unknown ops all get machine-readable rejections without state damage.
func TestCoordinatorRejectsBadInput(t *testing.T) {
	spec, workload := synthSpec("guards", 40, 4)
	fp := spec.Fingerprint()
	c, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}

	wrong := fp
	wrong.BaseSeed++
	if r := c.Dispatch(leaseReq("A", wrong)); r.OK || r.Reason != ReasonFingerprint {
		t.Fatalf("wrong-fingerprint lease: %+v", r)
	}
	if r := c.Dispatch(Request{Op: OpLease, Worker: "A"}); r.OK || r.Reason != ReasonFingerprint {
		t.Fatalf("missing-fingerprint lease: %+v", r)
	}

	agg := shardAggregate(t, spec, 0)
	req := resultReq("A", fp, 0, agg)
	req.Sum = "deadbeef"
	if r := c.Dispatch(req); r.OK || r.Reason != ReasonBadSum {
		t.Fatalf("corrupted payload: %+v", r)
	}

	short := shardAggregate(t, spec, 0)
	short.Episodes--
	if r := c.Dispatch(resultReq("A", fp, 0, short)); r.OK || r.Reason != ReasonBadRequest {
		t.Fatalf("partial shard accepted: %+v", r)
	}

	if r := c.Dispatch(Request{Op: "gossip", Worker: "A"}); r.OK || r.Reason != ReasonBadRequest {
		t.Fatalf("unknown op: %+v", r)
	}
	if r := c.Dispatch(Request{Op: OpHello}); r.OK || r.Reason != ReasonBadRequest {
		t.Fatalf("anonymous hello: %+v", r)
	}
	if ctr := c.Counters(); ctr.ShardsDone != 0 || ctr.ResultsBadSum != 1 {
		t.Fatalf("counters after rejects: %+v", ctr)
	}
}

// TestCoordinatorDrainQuiesces: draining stops admissions immediately,
// still accepts the in-flight result, and closes Done() once no lease is
// outstanding; WaitResult reports ErrDraining for the incomplete
// campaign.
func TestCoordinatorDrainQuiesces(t *testing.T) {
	spec, workload := synthSpec("drain", 40, 4)
	fp := spec.Fingerprint()
	c, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	la := c.Dispatch(leaseReq("A", fp))
	if la.Assign == nil {
		t.Fatalf("lease: %+v", la)
	}
	c.Drain()
	if l := c.Dispatch(leaseReq("B", fp)); !l.Done {
		t.Fatalf("post-drain lease %+v, want Done", l)
	}
	select {
	case <-c.Done():
		t.Fatal("quiesced with a lease still in flight")
	default:
	}
	if r := c.Dispatch(resultReq("A", fp, la.Assign.Shard, shardAggregate(t, spec, la.Assign.Shard))); !r.OK {
		t.Fatalf("in-flight result refused during drain: %+v", r)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done() open after last in-flight lease resolved")
	}
	if _, err := c.WaitResult(); !errors.Is(err, ErrDraining) {
		t.Fatalf("WaitResult after drain: %v, want ErrDraining", err)
	}
}

// TestCoordinatorCheckpointHandoff: a coordinator that accepted some
// shards and drained leaves a checkpoint a FRESH coordinator — or a
// plain single-process campaign.Run — resumes from, and the finished
// statistics are byte-identical to an undisturbed run.  The checkpoint
// format deliberately carries no topology.
func TestCoordinatorCheckpointHandoff(t *testing.T) {
	spec, workload := synthSpec("handoff", 60, 6)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "coord.json")
	fp := spec.Fingerprint()
	c, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 3; shard++ {
		if r := c.Dispatch(resultReq("A", fp, shard, shardAggregate(t, spec, shard))); !r.OK {
			t.Fatalf("shard %d: %+v", shard, r)
		}
	}
	c.Drain()

	c2, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if ctr := c2.Counters(); ctr.ResumedShards != 3 || ctr.ShardsDone != 3 {
		t.Fatalf("resumed coordinator counters: %+v", ctr)
	}
	// The resumed coordinator must not re-grant completed shards.
	if l := c2.Dispatch(leaseReq("B", fp)); l.Assign == nil || l.Assign.Shard != 3 {
		t.Fatalf("resumed lease %+v, want shard 3", l.Assign)
	}
	for shard := 3; shard < 6; shard++ {
		if r := c2.Dispatch(resultReq("B", fp, shard, shardAggregate(t, spec, shard))); !r.OK {
			t.Fatalf("shard %d: %+v", shard, r)
		}
	}
	got, err := c2.WaitResult()
	if err != nil {
		t.Fatal(err)
	}

	ref := spec
	ref.CheckpointPath = ""
	rep, err := campaign.Run(ref, synthEpisode)
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, rep.Stats, got)
}
