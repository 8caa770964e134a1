package sim

import (
	"time"

	"math/rand"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"

	"safeplan/internal/telemetry"
)

// MultiStepper is the multi-vehicle twin of Stepper: a resumable engine
// over RunMulti's oncoming-vehicle stream, one fusion filter and channel
// per track.  Injected StepInput events are routed to tracks by their
// 1-based Sender/Target index; out-of-range indices are dropped.
//
// The same lifetime rules apply as for Stepper: not safe for concurrent
// use, and pooled inside the arena when Options.Scratch is set.
type MultiStepper struct {
	cfg   MultiConfig
	agent core.MultiAgent
	opts  Options

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

	plan  func() (float64, bool)
	emerg func() float64
	env   func() (float64, float64, bool)

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

// NewMultiStepper validates cfg and builds a resumable multi-vehicle
// engine positioned before step 0, performing exactly the per-episode
// setup of the closed RunMulti loop (same RNG derivation order).
func NewMultiStepper(cfg MultiConfig, agent core.MultiAgent, opts Options) (*MultiStepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	sh := opts.Scratch
	sh.Begin()
	st := sh.multiStepper()
	st.reset(cfg, agent, opts)

	master := sh.RNG(opts.Seed)
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
		driver, err := sh.Driver(cfg.Driver, sh.RNG(master.Int63()))
		if err != nil {
			return nil, err
		}
		channel, err := sh.Channel(cfg.Comms, sh.RNG(master.Int63()))
		if err != nil {
			return nil, err
		}
		sens, err := sh.Sensor(cfg.Sensor, sh.RNG(master.Int63()))
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
		filt.InitExact(0, s, 0)
		*tr = oncomingTrack{state: s, driver: driver, channel: channel, sensor: sens, filter: filt}
	}
	// Sensor disturbance streams derive after every track's legacy streams
	// so existing configurations keep their exact per-seed behaviour.
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
	// Safe-action envelope basis for the guard; see Run.
	st.mon = monitor.New(sc)

	st.ego = sc.EgoInit
	st.msgTick = comms.MakeTicker(cfg.DtM)
	st.msgTick.Due(0)
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

	if st.plan == nil {
		// Built once per pooled MultiStepper (see Stepper): the closures
		// read the receiver's fields at call time.
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.ego, st.ks) }
		st.emerg = func() float64 { return st.sc.EmergencyAccel(st.ego) }
		// Per-track envelopes intersect: the ego must satisfy every
		// vehicle's commitment guard at once, exactly as the multi-vehicle
		// compound resolves them (an empty intersection or any emergency
		// verdict admits only κ_e).
		st.env = func() (float64, float64, bool) {
			lo, hi := st.sc.Ego.AMin, st.sc.Ego.AMax
			for _, k := range st.ks {
				o := st.mon.Assess(st.ego, st.sc.ConservativeWindow(k.Sound))
				if o.Emergency {
					return 0, 0, false
				}
				tlo, thi, ok := o.Envelope(st.sc.Ego)
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
	}
	return st, nil
}

// reset clears per-episode state while keeping the reusable closures.
func (st *MultiStepper) reset(cfg MultiConfig, agent core.MultiAgent, opts Options) {
	plan, emerg, env := st.plan, st.emerg, st.env
	*st = MultiStepper{plan: plan, emerg: emerg, env: env}
	st.cfg = cfg
	st.agent = agent
	st.opts = opts
}

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *MultiStepper) Done() bool { return st.done || st.err != nil }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *MultiStepper) Err() error { return st.err }

// Step advances the episode by one control step; see Stepper.Step.
// Injected messages and readings are routed to their track by the 1-based
// Sender/Target index.
func (st *MultiStepper) Step(in StepInput) (StepOutcome, error) {
	if st.done || st.err != nil {
		return st.terminalOutcome(), st.err
	}
	if st.step >= st.maxSteps {
		st.done = true
		return st.terminalOutcome(), nil
	}
	step := st.step
	st.t = float64(step) * st.dt
	t := st.t
	cfg := &st.cfg
	sc := st.sc
	res := &st.res
	tracks := st.tracks

	// 0. Externally streamed events, routed by track index.
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
				tr.filter.OnReading(tr.sensor.MeasureBiased(i+1, sensAt, tr.state, tr.accel, bias))
			}
		}
		est := tr.filter.EstimateAt(t)
		st.ests[i] = est
		if !est.P.Contains(tr.state.P) || !est.V.Contains(tr.state.V) {
			res.FusedIntervalMisses++
		}
		if !est.SoundP.Contains(tr.state.P) || !est.SoundV.Contains(tr.state.V) {
			res.SoundViolations++
		}
		st.ks[i] = core.Knowledge{
			Sound: leftturn.OncomingEstimate{
				P: est.SoundP, V: est.SoundV,
				PointP: est.PointP, PointV: est.PointV, A: est.A,
			},
			Fused: leftturn.OncomingEstimate{
				P: est.P, V: est.V,
				PointP: est.PointP, PointV: est.PointV, A: est.A,
			},
		}
	}

	var a0 float64
	var emergency bool
	var gres guard.StepResult
	var start time.Time
	if st.coll != nil {
		start = time.Now()
	}
	if st.gs != nil {
		a0, emergency, gres = st.gs.Step(t, st.plan, st.emerg, st.env)
	} else {
		a0, emergency = st.plan()
	}
	if st.coll != nil {
		st.coll.OnStep(multiStepProbe(sc, t, emergency, st.ks, st.cons, st.aggr, time.Since(start).Nanoseconds()))
		if st.gs != nil {
			st.gs.Report(st.coll, t, gres)
		}
	}
	if emergency {
		res.EmergencySteps++
	}
	if len(st.opts.Invariants) > 0 {
		for i := range tracks {
			tr := &tracks[i]
			si := &st.si
			*si = StepInfo{
				T: t, Vehicle: i, Ego: st.ego, Other: tr.state, OtherA: tr.accel,
				Est: st.ests[i], Accel: a0, Emergency: emergency,
			}
			if st.gs != nil {
				st.gs.Annotate(si, gres)
			}
			if ierr := CheckStepInvariants(st.opts.Invariants, si); ierr != nil {
				st.err = ierr
				return st.terminalOutcome(), ierr
			}
		}
	}

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

// terminalOutcome summarizes a finished (or failed) episode for repeated
// Step calls past the end.
func (st *MultiStepper) terminalOutcome() StepOutcome {
	return StepOutcome{
		T: st.t, Step: st.step,
		EgoP: st.ego.P, EgoV: st.ego.V,
		Done: true, Collided: st.res.Collided, Reached: st.res.Reached,
	}
}

// Finish finalizes the episode; see Stepper.Finish.
func (st *MultiStepper) Finish() (Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	ReportOutcome(st.coll, st.opts.Seed, &st.res)
	if st.gs != nil {
		st.res.Guard = st.gs.Stats()
	}
	if st.err == nil && len(st.opts.Invariants) > 0 {
		st.err = CheckEpisodeInvariants(st.opts.Invariants, &st.res)
	}
	return st.res, st.err
}
