package sim

import (
	"math"
	"math/rand"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/sensor"
	"safeplan/internal/telemetry"
)

// StepInput carries externally streamed events into one control step of a
// resumable engine.  The zero value reproduces the closed run loop
// exactly: the internal world generates its own V2V broadcasts and sensor
// readings.  A streaming session (cmd/serve) injects received events
// here; they are fused *before* this step's internally generated traffic,
// so a zero input leaves the closed-loop behaviour intact.
type StepInput struct {
	// Messages are additional V2V messages delivered to the fusion filter
	// at the top of this step, bypassing the simulated channel (a streamed
	// message already survived its real network).  The Sender field
	// (1-based oncoming-vehicle index; the left turn's one vehicle is 1)
	// routes each message to its track; out-of-range senders are ignored.
	Messages []comms.Message
	// Readings are additional sensor readings fused at the top of this
	// step, routed by their Target field (1-based, as Sender);
	// out-of-range targets are ignored.
	Readings []sensor.Reading
}

// StepOutcome reports one executed control step of a resumable engine.
type StepOutcome struct {
	// T is the simulation time of the executed step [s]; Step is its
	// zero-based index.
	T    float64
	Step int

	// Accel is the executed ego command; Emergency reports whether κ_e
	// (or a guard fallback) produced it.
	Accel     float64
	Emergency bool

	// EgoP and EgoV are the ego state *after* the step.
	EgoP, EgoV float64

	// Done is set on the terminal step: collision, target reached, or —
	// with neither flag below — horizon timeout.
	Done     bool
	Collided bool
	Reached  bool
}

// streamOrder is the order in which set-up derives an episode's random
// streams from the master seed.  The left turn and the oncoming stream
// have always derived them differently, and both orders are pinned by the
// committed goldens and by perfbench's recorded episode digests, so each
// constructor keeps its own: the left turn is the one-track stream in
// every respect but this one.
type streamOrder uint8

const (
	// tracksAfterInit (NewMultiStepper): init, sensor-drop, then each
	// track's driver, channel and sensor streams.
	tracksAfterInit streamOrder = iota
	// trackBeforeInit (NewStepper): track 0's driver, channel and sensor
	// streams, then init and sensor-drop.
	trackBeforeInit
)

// MultiStepper is the resumable episode engine of the left-turn scenario:
// the ego against a stream of oncoming vehicles, one channel, sensor and
// fusion filter per track.  The single-vehicle left turn is the stream
// with one track (NewStepper); NewMultiStepper runs any number.  The
// engine owns every piece of per-episode state and advances one control
// step per Step call.  Run and RunMulti are thin loops over it, and
// long-running services (cmd/serve) hold one per live session, feeding it
// streamed events between calls.
//
// A MultiStepper is not safe for concurrent use.  It is pooled inside the
// episode's Scratch arena and stays valid only until the next
// NewStepper/NewMultiStepper/Run/RunMulti call on the same arena.
type MultiStepper struct {
	cfg   MultiConfig
	agent core.MultiAgent
	opts  Options

	// one runs NewStepper's single-vehicle agent as agent.  It lives in
	// the pooled engine so a warm left-turn episode allocates nothing.
	one oneTrackAgent

	sc  leftturn.Config
	mon monitor.Monitor
	gs  *GuardedStep

	tracks []oncomingTrack
	ks     []core.Knowledge
	ests   []fusion.Estimate

	// Telemetry-probe window scratch (nil unless a collector is attached).
	cons, aggr []interval.Interval

	sensDropRng *rand.Rand

	ego dynamics.State

	msgTick, sensTick comms.Ticker
	msgBuf            []comms.Message

	coll telemetry.Collector

	// Hot-path closures, built once per pooled engine (not per episode):
	// they capture only the receiver pointer and read its fields at call
	// time, so a pooled engine re-runs episodes without re-allocating
	// them.
	plan   func() (float64, bool)
	emerg  func() float64
	env    func() (float64, float64, bool)
	certFn func() (float64, float64, bool)

	// Verified-mode state (Config.Certify, left turn only); certOn gates
	// every use, so a disabled run pays one bool check per step.
	// cert.scr survives reset like the closures, keeping pooled verified
	// episodes allocation-free.
	cert   certifier
	certOn bool

	t  float64
	si StepInfo // invariant payload, refilled per track every step

	dt       float64
	maxSteps int
	step     int

	res      Result
	done     bool
	finished bool
	err      error
}

// oneTrackAgent runs a single-vehicle agent as the one-track stream's
// MultiAgent by handing it track 0's knowledge.
type oneTrackAgent struct{ core.Agent }

// Accel implements core.MultiAgent.
func (a *oneTrackAgent) Accel(t float64, ego dynamics.State, ks []core.Knowledge) (float64, bool) {
	return a.Agent.Accel(t, ego, ks[0])
}

// NewStepper validates cfg and builds the resumable engine of one
// single-vehicle left-turn episode, positioned before step 0: the
// oncoming stream with one track, driven by agent.
func NewStepper(cfg Config, agent core.Agent, opts Options) (*MultiStepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newEngine(MultiConfig{Config: cfg, Vehicles: 1}, nil, agent, opts, trackBeforeInit)
}

// NewMultiStepper validates cfg and builds the resumable engine of one
// oncoming-stream episode, positioned before step 0.
func NewMultiStepper(cfg MultiConfig, agent core.MultiAgent, opts Options) (*MultiStepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newEngine(cfg, agent, nil, opts, tracksAfterInit)
}

// newEngine performs the per-episode set-up of both constructors on the
// arena's pooled engine.  Exactly one of multi and single is non-nil;
// single is run through the engine's one-track adapter.  A nil
// Options.Scratch gets a fresh arena.
func newEngine(cfg MultiConfig, multi core.MultiAgent, single core.Agent, opts Options, order streamOrder) (*MultiStepper, error) {
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	if opts.Scratch == nil {
		opts.Scratch = NewScratch()
	}
	sh := opts.Scratch
	sh.Begin()
	st := sh.multiStepper()
	st.reset(cfg, opts)
	st.agent = multi
	if single != nil {
		st.one.Agent = single
		st.agent = &st.one
	}

	master := sh.RNG(opts.Seed)
	var seeds [3]int64 // driver, channel and sensor seeds of the next track
	if order == trackBeforeInit {
		seeds = [3]int64{master.Int63(), master.Int63(), master.Int63()}
	}
	initRng := sh.RNG(master.Int63())
	st.sensDropRng = sh.RNG(master.Int63())

	sc := cfg.Scenario
	st.sc = sc
	tracks := sh.trackSlice(cfg.Vehicles)
	st.tracks = tracks
	// Zero spacing selects the documented default; without the fill a
	// zero-valued MultiConfig stacked every oncoming vehicle at the same
	// start position (modulo jitter).
	spacing := cfg.SpacingDist
	if spacing == 0 {
		spacing = DefaultSpacingDist
	}
	offset := 0.0
	for i := range tracks {
		tr := &tracks[i]
		if i > 0 || order != trackBeforeInit {
			seeds = [3]int64{master.Int63(), master.Int63(), master.Int63()}
		}
		driver, err := sh.Driver(cfg.Driver, sh.RNG(seeds[0]))
		if err != nil {
			return nil, err
		}
		channel, err := sh.Channel(cfg.Comms, sh.RNG(seeds[1]))
		if err != nil {
			return nil, err
		}
		sens, err := sh.Sensor(cfg.Sensor, sh.RNG(seeds[2]))
		if err != nil {
			return nil, err
		}
		filt, err := sh.Fusion(fusion.Config{
			Limits:    sc.Oncoming,
			Sensor:    cfg.Sensor,
			UseKalman: cfg.InfoFilter,
			Replay:    cfg.InfoFilter && !cfg.NoReplay,
		})
		if err != nil {
			return nil, err
		}
		s := sc.OncomingInit
		if cfg.OncomingStartSpread > 0 {
			s.P -= initRng.Float64() * cfg.OncomingStartSpread
		}
		if cfg.OncomingSpeedMax > 0 {
			s.V = cfg.OncomingSpeedMin + initRng.Float64()*(cfg.OncomingSpeedMax-cfg.OncomingSpeedMin)
		}
		s.P -= offset
		offset += spacing + initRng.Float64()*cfg.SpacingJitter
		// The scenario starts with a handshake broadcast: the initial
		// oncoming state is known exactly (paper §IV assumes C0 obtains
		// p1, v1; all later knowledge flows through the disturbed channel
		// and sensors).
		filt.InitExact(0, s, 0)
		*tr = oncomingTrack{state: s, driver: driver, channel: channel, sensor: sens, filter: filt}
	}
	// Sensor disturbance streams derive after every track's streams so
	// configurations without one keep their exact per-seed behaviour.
	if cfg.SensorDisturb != nil {
		for i := range tracks {
			tracks[i].sensProc = cfg.SensorDisturb.NewSensor(sh.RNG(master.Int63()))
		}
	}
	// Planner-fault streams derive last, under the same compatibility rule.
	gs, err := NewGuardedStep(cfg.Guard, cfg.PlannerFault, sc.Ego, master)
	if err != nil {
		return nil, err
	}
	st.gs = gs
	// The guard validates executed commands against the monitor's
	// safe-action envelope, recomputed from the sound estimate (the only
	// basis with a soundness guarantee, regardless of any agent-side
	// monitor ablation).
	st.mon = monitor.New(sc)

	st.ego = sc.EgoInit
	st.msgTick = comms.MakeTicker(cfg.DtM)
	st.msgTick.Due(0) // initial broadcast consumed by InitExact
	st.sensTick = comms.MakeTicker(cfg.DtS)
	st.sensTick.Due(0)

	st.coll = opts.Collector
	st.dt = sc.DtC
	st.maxSteps = int(horizon/st.dt) + 1
	st.ks, st.ests = sh.knowledgeSlices(len(tracks))
	st.msgBuf = sh.MsgBuf()
	if st.coll != nil {
		st.cons, st.aggr = sh.windowSlices(len(tracks))
	}

	if cfg.Certify != nil {
		if err := st.cert.init(cfg.Certify, sc.Ego, single); err != nil {
			return nil, err
		}
		st.certOn = true
	}

	if st.plan == nil {
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.ego, st.ks) }
		st.emerg = func() float64 { return st.sc.EmergencyAccel(st.ego) }
		// Per-track envelopes intersect: the ego must satisfy every
		// vehicle's commitment guard at once, exactly as the multi-vehicle
		// compound resolves them (an empty intersection or any emergency
		// verdict admits only κ_e).
		st.env = func() (float64, float64, bool) {
			lo, hi := st.sc.Ego.AMin, st.sc.Ego.AMax
			for _, k := range st.ks {
				tlo, thi, ok := st.mon.Assess(st.ego, st.sc.ConservativeWindow(k.Sound)).Envelope(st.sc.Ego)
				if !ok {
					return 0, 0, false
				}
				if tlo > lo {
					lo = tlo
				}
				if thi < hi {
					hi = thi
				}
			}
			return lo, hi, lo <= hi
		}
		// Verified mode exists for the left turn alone (MultiConfig
		// refuses Certify), so the range is track 0's.
		st.certFn = func() (float64, float64, bool) {
			st.cert.lo, st.cert.hi, st.cert.ok = st.cert.rangeAt(st.t, st.ego, &st.sc, st.ks[0])
			return st.cert.lo, st.cert.hi, st.cert.ok
		}
	}
	if st.certOn && st.gs != nil {
		st.gs.SetCertifiedRange(st.certFn)
	}
	return st, nil
}

// reset clears per-episode state while keeping the reusable closures and
// the IBP scratch.
func (st *MultiStepper) reset(cfg MultiConfig, opts Options) {
	plan, emerg, env, certFn := st.plan, st.emerg, st.env, st.certFn
	certScr := st.cert.scr
	*st = MultiStepper{plan: plan, emerg: emerg, env: env, certFn: certFn}
	st.cert.scr = certScr
	st.cfg = cfg
	st.opts = opts
}

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *MultiStepper) Done() bool { return st.done || st.err != nil }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *MultiStepper) Err() error { return st.err }

// Step advances the episode by one control step.  The input can inject
// externally streamed V2V messages and sensor readings, routed to tracks
// by their 1-based Sender/Target index (see StepInput); a zero input
// reproduces the closed run loop byte for byte.  After the terminal step
// (or after an error) further calls return the terminal outcome
// unchanged.
//
// One step runs, in order: the channel (broadcast and delivery), sensing,
// fusion, the plan, the guard, the certified-range check, the step
// invariants, the trace row, the dynamics and the outcome checks.
func (st *MultiStepper) Step(in StepInput) (StepOutcome, error) {
	if st.done || st.err != nil {
		return st.terminalOutcome(), st.err
	}
	if st.step >= st.maxSteps {
		// Timeout: neither target nor violation — η = 0.
		st.done = true
		return st.terminalOutcome(), nil
	}
	step := st.step
	st.t = float64(step) * st.dt
	t := st.t
	cfg := &st.cfg
	sc := &st.sc
	res := &st.res
	tracks := st.tracks

	// 0. Externally streamed events, routed by track index (sessions
	// only; empty in the closed run loop).
	for _, m := range in.Messages {
		if m.Sender >= 1 && m.Sender <= len(tracks) {
			tracks[m.Sender-1].filter.OnMessage(m)
		}
	}
	for _, r := range in.Readings {
		if r.Target >= 1 && r.Target <= len(tracks) {
			tracks[r.Target-1].filter.OnReading(r)
		}
	}

	// 1–4. Per track: the periodic V2V broadcast, delivery of whatever
	// the channel releases at this instant, periodic onboard sensing
	// (subject to injected dropout and the sensor disturbance model), and
	// fusion.
	msgAt, msgDue := st.msgTick.Due(t)
	sensAt, sensDue := st.sensTick.Due(t)
	for i := range tracks {
		tr := &tracks[i]
		if msgDue {
			tr.channel.Send(comms.Message{Sender: i + 1, T: msgAt, P: tr.state.P, V: tr.state.V, A: tr.accel})
		}
		st.msgBuf = tr.channel.PollAppend(t, st.msgBuf[:0])
		for _, m := range st.msgBuf {
			tr.filter.OnMessage(m)
		}
		if sensDue {
			drop := cfg.SensorDropProb > 0 && st.sensDropRng.Float64() < cfg.SensorDropProb
			var bias float64
			if tr.sensProc != nil {
				d := tr.sensProc.Next(sensAt)
				drop = drop || d.Drop
				bias = d.Bias
			}
			if !drop {
				tr.meas = tr.sensor.MeasureBiased(i+1, sensAt, tr.state, tr.accel, bias)
				tr.haveMeas = true
				tr.filter.OnReading(tr.meas)
			}
		}
		est := &st.ests[i]
		tr.filter.EstimateInto(est, t)
		if !est.P.Contains(tr.state.P) || !est.V.Contains(tr.state.V) {
			res.FusedIntervalMisses++
		}
		if !est.SoundP.Contains(tr.state.P) || !est.SoundV.Contains(tr.state.V) {
			res.SoundViolations++
		}
		// Written field by field: every field of both estimates, in
		// place (see DESIGN.md, hot-path rules).
		k := &st.ks[i]
		k.Sound.P, k.Sound.V = est.SoundP, est.SoundV
		k.Fused.P, k.Fused.V = est.P, est.V
		k.Sound.PointP, k.Sound.PointV, k.Sound.A = est.PointP, est.PointV, est.A
		k.Fused.PointP, k.Fused.PointV, k.Fused.A = est.PointP, est.PointV, est.A
	}

	// 5. Plan, through the guard when one is configured, and cross-check
	// the command against the certified range in verified mode.
	var a0 float64
	var emergency bool
	var gres guard.StepResult
	var start time.Time
	if st.coll != nil {
		start = time.Now()
	}
	if st.certOn {
		st.cert.lo, st.cert.hi, st.cert.ok = 0, 0, false
	}
	if st.gs != nil {
		// The guard runs the certified-range cross-check itself (armed via
		// SetCertifiedRange) so misses land in its fault accounting.
		a0, emergency, gres = st.gs.Step(t, st.plan, st.emerg, st.env)
	} else {
		a0, emergency = st.plan()
		if st.certOn && !emergency {
			if lo, hi, ok := st.certFn(); ok {
				res.CertifiedSteps++
				// Written so that a NaN bound counts as a miss.
				if !(a0 >= lo && a0 <= hi) {
					res.CertifiedRangeMisses++
					gres.CertifiedMiss = true
				}
			}
		}
	}
	if st.coll != nil {
		p := multiStepProbe(sc, t, emergency, st.ks, st.cons, st.aggr, time.Since(start).Nanoseconds())
		if st.cert.ok {
			p.CertWidth = st.cert.hi - st.cert.lo
		}
		p.CertMiss = gres.CertifiedMiss
		st.coll.OnStep(p)
		if st.gs != nil {
			st.gs.Report(st.coll, t, gres)
		}
	}
	if emergency {
		res.EmergencySteps++
	}

	// 6. Step invariants, once per track.
	if len(st.opts.Invariants) > 0 {
		for i := range tracks {
			tr := &tracks[i]
			si := &st.si
			si.T, si.Vehicle, si.Ego, si.Other, si.OtherA = t, i, st.ego, tr.state, tr.accel
			si.Est = st.ests[i]
			si.Accel, si.Emergency = a0, emergency
			si.GuardState, si.GuardFault, si.GuardFallback = "", "", ""
			if st.gs != nil {
				st.gs.Annotate(si, gres)
			}
			if ierr := CheckStepInvariants(st.opts.Invariants, si); ierr != nil {
				st.err = ierr
				return st.terminalOutcome(), ierr
			}
		}
	}

	// 7. Trace row of track 0 (see Options.Trace).
	if st.opts.Trace {
		res.Trace = append(res.Trace, st.sample(a0, emergency))
	}

	// 8. Advance the world.
	st.ego, _ = dynamics.Step(st.ego, a0, st.dt, sc.Ego)
	for i := range tracks {
		tr := &tracks[i]
		var ba float64
		if len(cfg.OncomingScript) > 0 {
			ba = ScriptAccel(cfg.OncomingScript, step)
		} else {
			ba = tr.driver.Accel(t, tr.state)
		}
		tr.state, tr.accel = dynamics.Step(tr.state, ba, st.dt, sc.Oncoming)
	}
	res.Steps++
	st.step++

	out := StepOutcome{
		T: t, Step: step,
		Accel: a0, Emergency: emergency,
		EgoP: st.ego.P, EgoV: st.ego.V,
	}

	// 9. Outcome checks.
	for i := range tracks {
		if sc.Collision(st.ego, tracks[i].state) {
			res.Collided = true
			res.Eta = -1
			st.done = true
			out.Done, out.Collided = true, true
			return out, nil
		}
	}
	if sc.ReachedTarget(st.ego) {
		res.Reached = true
		res.ReachTime = t + st.dt
		res.Eta = 1 / res.ReachTime
		st.done = true
		out.Done, out.Reached = true, true
		return out, nil
	}
	if st.step >= st.maxSteps {
		st.done = true
		out.Done = true
	}
	return out, nil
}

// sample builds the current step's trace row for track 0, before the
// world advances.
func (st *MultiStepper) sample(a0 float64, emergency bool) Sample {
	sc := &st.sc
	tr, est, k := &st.tracks[0], &st.ests[0], &st.ks[0]
	cons := sc.ConservativeWindow(k.Fused)
	aggr := sc.AggressiveWindow(k.Fused)
	soundW := sc.ConservativeWindow(k.Sound)
	s := Sample{
		T:    st.t,
		EgoP: st.ego.P, EgoV: st.ego.V, EgoA: a0,
		OncP: tr.state.P, OncV: tr.state.V, OncA: tr.accel,
		MeasP: math.NaN(), MeasV: math.NaN(),
		EstP: est.PointP, EstV: est.PointV,
		EstPLo: est.P.Lo, EstPHi: est.P.Hi,
		EstVLo: est.V.Lo, EstVHi: est.V.Hi,
		ConsLo: cons.Lo, ConsHi: cons.Hi,
		AggrLo: aggr.Lo, AggrHi: aggr.Hi,
		SoundPLo: est.SoundP.Lo, SoundPHi: est.SoundP.Hi,
		SoundVLo: est.SoundV.Lo, SoundVHi: est.SoundV.Hi,
		SoundLo: soundW.Lo, SoundHi: soundW.Hi,
		Emergency: emergency,
	}
	if tr.haveMeas {
		s.MeasP, s.MeasV = tr.meas.P, tr.meas.V
	}
	return s
}

// terminalOutcome summarizes a finished (or failed) episode for repeated
// Step calls past the end.
func (st *MultiStepper) terminalOutcome() StepOutcome {
	return StepOutcome{
		T: st.t, Step: st.step,
		EgoP: st.ego.P, EgoV: st.ego.V,
		Done: true, Collided: st.res.Collided, Reached: st.res.Reached,
	}
}

// Finish finalizes the episode: it reports the outcome to the collector,
// folds the guard's episode statistics into the result, and runs the
// episode-level invariant checks (skipped when a step already failed).
// Finish is idempotent; an abandoned session may call it mid-episode to
// obtain the partial result.
func (st *MultiStepper) Finish() (Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	ReportOutcome(st.coll, st.opts.Seed, &st.res)
	if st.gs != nil {
		st.res.Guard = st.gs.Stats()
		// The guard owns the certified-range cross-check on guarded runs;
		// fold its counters so Result reads the same either way.
		st.res.CertifiedSteps += st.res.Guard.CertifiedSteps
		st.res.CertifiedRangeMisses += st.res.Guard.CertifiedRangeMisses
	}
	if st.err == nil && len(st.opts.Invariants) > 0 {
		st.err = CheckEpisodeInvariants(st.opts.Invariants, &st.res)
	}
	return st.res, st.err
}
