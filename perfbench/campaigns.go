package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/dist"
	"safeplan/internal/disturb"
	"safeplan/internal/experiments"
	"safeplan/internal/guard"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
	"safeplan/internal/workloads"
)

// defaultSeed is the seed whose campaign statistics digests are recorded
// in expertDigests and nnDigests.
const defaultSeed = 1

// setupPerRound is how many set-ups follow each measured round; setup_s
// is the median over the run, so set-ups sample the host all along it.
const setupPerRound = 4

// retryAfter is the coordinator's wait hint.  The default (250 ms) would
// idle a worker for most of a short campaign's tail.
const retryAfter = 2 * time.Millisecond

// baseSeed is the BaseSeed of round r: distinct seeds and rounds never
// share episodes.  The measured rounds all use round 0, the digest round
// of the default seed.
func baseSeed(seed int64, round int) int64 { return seed*1_000_000 + int64(round)*10_000 }

// campaignCase is one campaign of a workload's fixed sequence.
type campaignCase struct {
	name       string
	episodes   int
	episode    campaign.EpisodeFunc
	invariants []sim.Invariant
}

// delayed is the paper's "messages delayed" setting (Tables I–II).
func delayed() experiments.Setting { return experiments.StandardSettings()[1] }

func burstModel() disturb.Model {
	m, err := disturb.Preset("burst")
	if err != nil {
		// A registry constant; failure is a programming error.
		panic(err)
	}
	return m
}

// Expert-workload scenario configurations, shared with the layer pass.
func expertLeftTurnDelayed() (sim.Config, core.Agent) {
	cfg := experiments.SettingConfig(delayed())
	cfg.InfoFilter = true
	return cfg, core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
}

func expertMulti() sim.MultiConfig {
	cfg := sim.DefaultMultiConfig()
	cfg.Comms = delayed().Comms
	cfg.Sensor = delayed().Sensor
	cfg.InfoFilter = true
	return cfg
}

func expertCarFollow() carfollow.SimConfig {
	cfg := carfollow.DefaultSimConfig()
	cfg.Comms = delayed().Comms
	cfg.Sensor = delayed().Sensor
	cfg.InfoFilter = true
	return cfg
}

// expertPlatoon is the four-vehicle chain with the burst preset on its
// middle link and clean links elsewhere.
func expertPlatoon() platoon.SimConfig {
	cfg := platoon.DefaultSimConfig()
	cfg.InfoFilter = true
	lc := make([]comms.Config, cfg.Vehicles-1)
	for l := range lc {
		lc[l] = comms.NoDisturbance()
	}
	lc[(cfg.Vehicles-1)/2] = comms.Disturbed(burstModel())
	cfg.LinkComms = lc
	return cfg
}

// expertCases is the campaign-expert sequence.  Sizes keep one round near
// a second on two cores with every campaign spread over its 64 shards.
func expertCases(short bool) []campaignCase {
	size := func(n int) int {
		if short {
			return max(n/50, 8)
		}
		return n
	}
	ltCfg, ltAgent := expertLeftTurnDelayed()

	burstCfg := sim.DefaultConfig()
	burstCfg.Comms = comms.Disturbed(burstModel())
	burstCfg.InfoFilter = true
	burstAgent := core.NewUltimate(burstCfg.Scenario, planner.ConservativeExpert(burstCfg.Scenario))

	mc := expertMulti()
	mAgent := core.NewMultiUltimate(mc.Scenario, planner.ConservativeExpert(mc.Scenario))

	cf := expertCarFollow()
	cfAgent := carfollow.NewUltimate(cf.Scenario, carfollow.AggressiveExpert(cf.Scenario))

	pl := expertPlatoon()
	plSc := pl.LinkScenario()
	plAgent := carfollow.NewUltimate(plSc, carfollow.AggressiveExpert(plSc))

	return []campaignCase{
		{"leftturn-delayed", size(1600), campaign.LeftTurn(ltCfg, ltAgent), workloads.InvariantSet(ltCfg)},
		{"leftturn-burst", size(1600), campaign.LeftTurn(burstCfg, burstAgent), workloads.InvariantSet(burstCfg)},
		{"multi-delayed", size(640), campaign.MultiVehicle(mc, mAgent),
			[]sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, sim.EmergencyOneStep{Cfg: mc.Scenario}}},
		{"carfollow-delayed", size(320), campaign.CarFollow(cf, cfAgent),
			[]sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, carfollow.TrueSlack{Cfg: cf.Scenario}}},
		{"platoon4-burst-mid", size(192), campaign.Platoon(pl, plAgent),
			[]sim.Invariant{sim.NoCollision{}, sim.SoundEstimate{}, carfollow.TrueSlack{Cfg: plSc}, platoon.StringStability{}}},
	}
}

// nnModels is the certified-NN workload's loaded state: both committed
// planners and one interval propagator per network.
type nnModels struct {
	cons, aggr         *planner.NNPlanner
	consProp, aggrProp *ibp.Propagator
}

func loadNNModels(root string) (*nnModels, error) {
	cfg := sim.DefaultConfig()
	pl, err := experiments.LoadPlanners(filepath.Join(root, "models"), cfg.Scenario)
	if err != nil {
		return nil, err
	}
	m := &nnModels{}
	var ok bool
	if m.cons, ok = pl.Cons.(*planner.NNPlanner); !ok {
		return nil, fmt.Errorf("conservative model is %T, want an NN planner", pl.Cons)
	}
	if m.aggr, ok = pl.Aggr.(*planner.NNPlanner); !ok {
		return nil, fmt.Errorf("aggressive model is %T, want an NN planner", pl.Aggr)
	}
	if m.consProp, err = ibp.New(m.cons.Net, m.cons.Norm); err != nil {
		return nil, err
	}
	if m.aggrProp, err = ibp.New(m.aggr.Net, m.aggr.Norm); err != nil {
		return nil, err
	}
	return m, nil
}

// clonePlanner copies an NN planner's network (fresh forward caches) and
// shares its read-only normalizer, as `bench -ibp` does per worker.
func clonePlanner(p *planner.NNPlanner) *planner.NNPlanner {
	return &planner.NNPlanner{Label: p.Label, Net: p.Net.Clone(), Norm: p.Norm, Limits: p.Limits}
}

// certifiedConfig is left turn with delayed comms, the info filter, IBP
// verified mode and the guard.
func certifiedConfig(prop *ibp.Propagator) sim.Config {
	cfg := experiments.SettingConfig(delayed())
	cfg.InfoFilter = true
	cfg.Certify = &sim.CertifyConfig{Prop: prop}
	gc := guard.DefaultConfig(cfg.Scenario.Ego)
	cfg.Guard = &gc
	return cfg
}

// pooledAgents gives every campaign worker its own cloned agent.
func pooledAgents(cfg sim.Config, p *planner.NNPlanner) campaign.EpisodeFunc {
	pool := &sync.Pool{New: func() any { return core.NewUltimate(cfg.Scenario, clonePlanner(p)) }}
	return func(opts sim.Options) (sim.Result, error) {
		ag := pool.Get().(core.Agent)
		defer pool.Put(ag)
		return sim.Run(cfg, ag, opts)
	}
}

func (m *nnModels) cases(short bool) []campaignCase {
	n := 800
	if short {
		n = 16
	}
	var out []campaignCase
	for _, c := range []struct {
		name string
		p    *planner.NNPlanner
		prop *ibp.Propagator
	}{{"certified-nn-cons", m.cons, m.consProp}, {"certified-nn-aggr", m.aggr, m.aggrProp}} {
		cfg := certifiedConfig(c.prop)
		out = append(out, campaignCase{c.name, n, pooledAgents(cfg, c.p), workloads.InvariantSet(cfg)})
	}
	return out
}

// episodeClock times each episode from outside the engine: per-episode
// mean step time and total busy time.  Once per campaign, halfway
// through, it also samples the live heap, while every worker's arena and
// agent, the campaign's shard state and, through campaignd, the
// coordinator and its connections are live.
type episodeClock struct {
	mu     sync.Mutex
	stepNs []float64
	heapMB float64 // the round's largest sample
	busy   atomic.Int64
	// started counts the current campaign's episodes; episode heapAt
	// samples the heap.
	started, heapAt atomic.Int64
}

func (c *episodeClock) reset() {
	c.mu.Lock()
	c.stepNs = c.stepNs[:0]
	c.heapMB = 0
	c.mu.Unlock()
	c.busy.Store(0)
}

// arm starts a campaign of n episodes.
func (c *episodeClock) arm(n int) {
	c.started.Store(0)
	c.heapAt.Store(int64(max(n/2, 1)))
}

func (c *episodeClock) wrap(f campaign.EpisodeFunc) campaign.EpisodeFunc {
	return func(opts sim.Options) (sim.Result, error) {
		if c.started.Add(1) == c.heapAt.Load() {
			h := liveHeapMB()
			c.mu.Lock()
			c.heapMB = max(c.heapMB, h)
			c.mu.Unlock()
		}
		t0 := time.Now()
		r, err := f(opts)
		d := time.Since(t0)
		c.busy.Add(d.Nanoseconds())
		if r.Steps > 0 {
			c.mu.Lock()
			c.stepNs = append(c.stepNs, float64(d.Nanoseconds())/float64(r.Steps))
			c.mu.Unlock()
		}
		return r, err
	}
}

// statsDigest is the SHA-256 of a campaign's Stats JSON, which is
// byte-identical for a spec at any worker count.
func statsDigest(st campaign.Stats) string {
	raw, err := json.Marshal(st)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}

// checkCampaign applies the correctness checks to one finished campaign:
// the safety counters must be zero at any seed, and the default seed's
// digest round must reproduce the recorded Stats digest.  Failing
// episodes count toward failed; a digest mismatch fails the campaign.
func checkCampaign(o *outcome, c campaignCase, st campaign.Stats, want string) {
	n := st.Episodes
	bad := st.Collided + st.SoundViolations + st.CertifiedRangeMisses
	for _, v := range st.InvariantViolations {
		bad += v
	}
	if st.Episodes != int64(c.episodes) {
		o.fail(int64(c.episodes), "%s: %d episodes folded, want %d", c.name, st.Episodes, c.episodes)
		return
	}
	if want != "" {
		if got := statsDigest(st); got != want {
			o.fail(n, "%s: stats digest %s, recorded %s", c.name, got, want)
			return
		}
	}
	if bad > 0 {
		o.fail(min(bad, n), "%s: %d collisions, %d sound violations, %d certified-range misses, invariants %v",
			c.name, st.Collided, st.SoundViolations, st.CertifiedRangeMisses, st.InvariantViolations)
	}
}

// distTally is the dist.Conn decorator's accumulator.
type distTally struct {
	mu              sync.Mutex
	leaseNs, resNs  []float64
	renews, waits   int64
	waitNs, retries int64
}

func (t *distTally) observe(op string, resp dist.Response, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op {
	case dist.OpLease:
		t.leaseNs = append(t.leaseNs, float64(d.Nanoseconds()))
		if resp.Wait {
			t.waits++
			t.waitNs += resp.RetryMS * int64(time.Millisecond)
		}
	case dist.OpResult:
		t.resNs = append(t.resNs, float64(d.Nanoseconds()))
	case dist.OpRenew:
		t.renews++
	}
}

// timedConn decorates a worker transport: every round trip is a span and
// feeds the tally.
type timedConn struct {
	dist.Conn
	tally *distTally
	tr    *tracer
}

func (c timedConn) Do(req dist.Request) (dist.Response, error) {
	t0 := time.Now()
	resp, err := c.Conn.Do(req)
	d := time.Since(t0)
	c.tally.observe(req.Op, resp, d)
	c.tr.record(0, "dist."+req.Op, t0, d, 1)
	return resp, err
}

// runDistCampaign runs one campaign through an in-process campaignd: a
// coordinator and server on loopback and n workers, each on its own TCP
// connection.  A non-nil tally decorates every connection.
func runDistCampaign(c campaignCase, base int64, n int, tally *distTally, tr *tracer) (campaign.Stats, error) {
	spec := campaign.Spec{
		Name: c.name, Episodes: c.episodes, BaseSeed: base,
		Invariants: c.invariants, CountViolations: true,
	}
	coord, err := dist.NewCoordinator(dist.Config{Spec: spec, Workload: c.name, RetryAfter: retryAfter})
	if err != nil {
		return campaign.Stats{}, err
	}
	addr, stop, err := startDistServer(coord)
	if err != nil {
		return campaign.Stats{}, err
	}
	defer stop()
	resolve := func(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
		if name != c.name {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		return c.episode, c.invariants, nil
	}
	dial := func() (dist.Conn, error) {
		conn, err := dist.DialTCP(addr)
		if err != nil || tally == nil {
			return conn, err
		}
		return timedConn{Conn: conn, tally: tally, tr: tr}, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	sums := make([]dist.WorkerSummary, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = dist.RunWorker(dist.WorkerConfig{
				ID: fmt.Sprintf("%s-w%d", c.name, i), Dial: dial, Resolve: resolve,
			})
		}(i)
	}
	// Workers return only once the coordinator answers Done (or on an
	// error), so waiting for them first never blocks on a dead fleet.
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return campaign.Stats{}, fmt.Errorf("worker %d: %w", i, err)
		}
		if tally != nil {
			tally.mu.Lock()
			tally.retries += sums[i].Retries
			tally.mu.Unlock()
		}
	}
	return coord.Result()
}

// startDistServer serves coord on a loopback port; stop closes the
// server and waits for its accept loop.
func startDistServer(coord *dist.Coordinator) (string, func(), error) {
	srv := dist.NewServer(coord)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns nil once stop closes the server
	}()
	stop := func() {
		srv.Close()
		<-served
	}
	return ln.Addr().String(), stop, nil
}

// roundResult is one pass over a workload's campaign sequence.
type roundResult struct {
	episodes int64
	wall     time.Duration
	stepNs   []float64
	busyNs   int64
	heapMB   float64
}

// campaignRunner runs one campaign of a round.
type campaignRunner func(c campaignCase, base int64) (campaign.Stats, error)

// runRound runs the whole sequence once, checking every campaign and,
// with a non-nil digest table, each campaign's Stats digest.  Every round
// runs the same episodes, those of round 0, so rounds differ only by
// machine noise.
func runRound(o *outcome, cases []campaignCase, clock *episodeClock, run campaignRunner, seed int64, digests map[string]string) roundResult {
	clock.reset()
	var rr roundResult
	t0 := time.Now()
	for _, c := range cases {
		o.attempted += int64(c.episodes)
		clock.arm(c.episodes)
		st, err := run(c, baseSeed(seed, 0))
		if err != nil {
			o.fail(int64(c.episodes), "%s: %v", c.name, err)
			continue
		}
		if digests != nil {
			o.details["digest/"+c.name] = statsDigest(st)
		}
		checkCampaign(o, c, st, digests[c.name])
		rr.episodes += st.Episodes
	}
	rr.wall = time.Since(t0)
	clock.mu.Lock()
	rr.stepNs = append([]float64(nil), clock.stepNs...)
	rr.heapMB = clock.heapMB
	clock.mu.Unlock()
	rr.busyNs = clock.busy.Load()
	return rr
}

// measureRounds repeats rounds until the budget is spent (at least one),
// each followed by setupPerRound set-ups and a host probe, and reports the
// end-to-end campaign metrics as medians over rounds or set-ups, which
// keeps a burst of machine noise from moving more than the rounds it
// hits.  Both timings are scaled by their round's probe access time over
// probeRefNs (rates up, times down), which cancels the host's memory
// contention of the moment; the raw figures stay in the report.
func measureRounds(o *outcome, rc runConfig, cases []campaignCase, clock *episodeClock, run campaignRunner, digests map[string]string, setup func() error) error {
	probe, err := newHostProbe(workers())
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	defer probe.close()
	var raw, eps, probeNs, heap, rawSetup, setupS []float64
	var tails []summary
	deadline := time.Now().Add(rc.budget(1))
	if rc.seed != defaultSeed || rc.short {
		digests = nil
	}
	for len(eps) == 0 || time.Now().Before(deadline) {
		rr := runRound(o, cases, clock, run, rc.seed, digests)
		var reps []float64
		for i := 0; i < setupPerRound; i++ {
			d, err := timeSetup(setup)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			reps = append(reps, d)
		}
		ns := probe.accessNs()
		raw = append(raw, rate(rr))
		eps = append(eps, rate(rr)*ns/probeRefNs)
		for _, d := range reps {
			rawSetup = append(rawSetup, d)
			setupS = append(setupS, d*probeRefNs/ns)
		}
		probeNs = append(probeNs, ns)
		heap = append(heap, rr.heapMB)
		tails = append(tails, summarize(rr.stepNs))
	}
	o.metrics["setup_s"] = median(setupS)
	o.metrics["episodes_per_s"] = median(eps)
	o.metrics["live_heap_mb"] = median(heap)
	o.details["raw_setup_s"] = median(rawSetup)
	o.details["setup_reps"] = len(setupS)
	o.details["raw_episodes_per_s"] = median(raw)
	o.details["probe_access_ns"] = median(probeNs)
	o.details["rounds"] = len(eps)
	o.details["round_episodes_per_s"] = eps
	o.details["round_raw_episodes_per_s"] = raw
	o.details["round_probe_access_ns"] = probeNs
	o.details["round_episode_step_ns"] = tails
	o.details["round_live_heap_mb"] = heap
	return probe.close()
}

// liveHeapMB is the heap after a forced collection.  sync.Pool keeps
// pooled arenas and agents through one collection, so they count.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// timeSetup runs one set-up after a collection and returns its wall
// time in seconds.
func timeSetup(f func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// expertSetup is campaign-expert's set-up: build the campaign sequence,
// start a coordinator and its server, and bring up every worker's
// connection with a hello round trip.
func expertSetup(rc runConfig) error {
	cases := expertCases(rc.short)
	c := cases[0]
	coord, err := dist.NewCoordinator(dist.Config{
		Spec:     campaign.Spec{Name: c.name, Episodes: c.episodes, BaseSeed: baseSeed(rc.seed, 0), Invariants: c.invariants, CountViolations: true},
		Workload: c.name, RetryAfter: retryAfter,
	})
	if err != nil {
		return err
	}
	addr, stop, err := startDistServer(coord)
	if err != nil {
		return err
	}
	defer stop()
	for i := 0; i < workers(); i++ {
		conn, err := dist.DialTCP(addr)
		if err != nil {
			return err
		}
		resp, err := conn.Do(dist.Request{Op: dist.OpHello, Worker: fmt.Sprintf("setup-%d", i)})
		conn.Close()
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("hello rejected: %s", resp.Error)
		}
	}
	return nil
}

func runCampaignExpert(rc runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	clock := &episodeClock{}
	cases := expertCases(rc.short)
	for i := range cases {
		cases[i].episode = clock.wrap(cases[i].episode)
	}
	untraced := func(c campaignCase, base int64) (campaign.Stats, error) {
		return runDistCampaign(c, base, n, nil, nil)
	}
	if !rc.trace {
		setup := func() error { return expertSetup(rc) }
		if err := measureRounds(o, rc, cases, clock, untraced, expertDigests, setup); err != nil {
			return nil, err
		}
		return o, nil
	}

	// Traced run: plain rounds paired with rounds through the decorated
	// transport, then the shared layer pass and the serve probe.
	tally := &distTally{}
	traced := traceOverhead(o, cases, clock, untraced, func(c campaignCase, base int64) (campaign.Stats, error) {
		return runDistCampaign(c, base, n, tally, rc.tr)
	}, rc.seed)
	reportDist(o, tally, traced.wall, n)
	reportIdle(o, traced, n)

	ls, err := newLayerSuite(rc, expertScenarios())
	if err != nil {
		return nil, err
	}
	if err := ls.run(o); err != nil {
		return nil, err
	}
	if err := serveProbe(rc, o); err != nil {
		return nil, err
	}
	return o, nil
}

func rate(rr roundResult) float64 { return float64(rr.episodes) / rr.wall.Seconds() }

// tracePairs is how many plain/traced round pairs trace_overhead_frac is
// the median over.
const tracePairs = 4

// traceOverhead runs tracePairs pairs of one plain and one traced round
// over the same episodes, alternating which goes first, and records
// trace_overhead_frac: the median over pairs of 1 − traced ÷ plain
// episodes/s.  It returns the traced rounds' totals.
func traceOverhead(o *outcome, cases []campaignCase, clock *episodeClock, plain, traced campaignRunner, seed int64) roundResult {
	var fracs []float64
	var sum roundResult
	for i := 0; i < tracePairs; i++ {
		var p, t roundResult
		if i%2 == 0 {
			p = runRound(o, cases, clock, plain, seed, nil)
			t = runRound(o, cases, clock, traced, seed, nil)
		} else {
			t = runRound(o, cases, clock, traced, seed, nil)
			p = runRound(o, cases, clock, plain, seed, nil)
		}
		fracs = append(fracs, 1-rate(t)/rate(p))
		sum.episodes += t.episodes
		sum.wall += t.wall
		sum.busyNs += t.busyNs
	}
	o.layer("trace_overhead_frac", median(fracs), sum.episodes)
	o.details["trace_overhead_fracs"] = fracs
	return sum
}

// reportDist turns the transport tally into the dist layer metrics.
func reportDist(o *outcome, t *distTally, wall time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o.layer("dist.lease_rtt_us", median(t.leaseNs)/1e3, int64(len(t.leaseNs)))
	o.layer("dist.result_rtt_us", median(t.resNs)/1e3, int64(len(t.resNs)))
	o.layer("dist.renew_count", float64(t.renews), t.renews)
	o.layer("dist.wait_frac", float64(t.waitNs)/(float64(n)*float64(wall.Nanoseconds())), t.waits)
	o.layer("dist.retries", float64(t.retries), t.retries)
	o.details["dist.lease_rtt_ns"] = summarize(t.leaseNs)
	o.details["dist.result_rtt_ns"] = summarize(t.resNs)
}

// reportIdle is campaign.worker_idle_frac: the share of worker time not
// spent inside an episode.
func reportIdle(o *outcome, rr roundResult, n int) {
	o.layer("campaign.worker_idle_frac", 1-float64(rr.busyNs)/(float64(n)*float64(rr.wall.Nanoseconds())), rr.episodes)
}

func runCertifiedNN(rc runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	m, err := loadNNModels(rc.root)
	if err != nil {
		return nil, err
	}
	clock := &episodeClock{}
	cases := m.cases(rc.short)
	for i := range cases {
		cases[i].episode = clock.wrap(cases[i].episode)
	}
	run := func(c campaignCase, base int64) (campaign.Stats, error) {
		rep, err := campaign.Run(campaign.Spec{
			Name: c.name, Episodes: c.episodes, BaseSeed: base, Workers: n,
			Invariants: c.invariants, CountViolations: true,
		}, c.episode)
		if err != nil {
			return campaign.Stats{}, err
		}
		if rep.Stats.CertifiedSteps == 0 {
			return rep.Stats, fmt.Errorf("no step was certified")
		}
		return rep.Stats, nil
	}
	if !rc.trace {
		if err := measureRounds(o, rc, cases, clock, run, nnDigests, func() error { return certifiedSetup(rc.root, n) }); err != nil {
			return nil, err
		}
		return o, nil
	}

	traced := traceOverhead(o, cases, clock, run, func(c campaignCase, base int64) (campaign.Stats, error) {
		t0 := time.Now()
		st, err := run(c, base)
		rc.tr.record(0, "campaign.run/"+c.name, t0, time.Since(t0), int64(c.episodes))
		return st, err
	}, rc.seed)
	reportIdle(o, traced, n)

	ls, err := newLayerSuite(rc, certifiedScenarios(m))
	if err != nil {
		return nil, err
	}
	if err := ls.run(o); err != nil {
		return nil, err
	}
	if err := distProbe(rc, o); err != nil {
		return nil, err
	}
	if err := serveProbe(rc, o); err != nil {
		return nil, err
	}
	return o, nil
}

// certifiedSetup is campaign-certified-nn's set-up: load both models,
// build their propagators and one cloned agent per worker and model, as
// the campaign's pool builds them.
func certifiedSetup(root string, n int) error {
	m, err := loadNNModels(root)
	if err != nil {
		return err
	}
	sc := sim.DefaultConfig().Scenario
	for _, p := range []*planner.NNPlanner{m.cons, m.aggr} {
		for i := 0; i < n; i++ {
			_ = core.NewUltimate(sc, clonePlanner(p))
		}
	}
	return nil
}

// distProbe measures the dist layer for workloads that do not run
// through campaignd: one expert left-turn campaign over decorated
// connections.
func distProbe(rc runConfig, o *outcome) error {
	c := expertCases(true)[0]
	c.episodes = 512
	tally := &distTally{}
	t0 := time.Now()
	st, err := runDistCampaign(c, baseSeed(rc.seed, 7), workers(), tally, rc.tr)
	if err != nil {
		return fmt.Errorf("dist probe: %w", err)
	}
	o.attempted += int64(c.episodes)
	checkCampaign(o, c, st, "")
	reportDist(o, tally, time.Since(t0), workers())
	return nil
}

// Recorded Stats digests of the measured rounds at the default seed.  A change that
// alters what any campaign computes must update them (and says so).
var expertDigests = map[string]string{
	"leftturn-delayed":   "1d3ff6ab8cd4ddf4211e2adb92f499e039904d3180f7508f6ebf9675266ae3bb",
	"leftturn-burst":     "0293fe7fa99daa579e2b0d74c10cfb1283620d01ef8f19d8484ddde017d65276",
	"multi-delayed":      "51be10492fda63ad6f6df540277976054c602f3bbf385c933613d764208a67d8",
	"carfollow-delayed":  "2c214e09a4a608a1dee06d8e3c2f8f0d8a00656ad595bdf96840dceafbec7205",
	"platoon4-burst-mid": "9d575b5f13673442d16987e7240f67cdbfaef767a8086d852e552211928b181d",
}

var nnDigests = map[string]string{
	"certified-nn-cons": "1ce713f9d8aed152b668c5136916cce14256d95e9806cbcfb4054a402d7223bd",
	"certified-nn-aggr": "8111dc60715b148e597f35e3286ef2c28f3a3d06d7bfd19cf5619f04da27fe7e",
}
