package carfollow

import (
	"math"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
	"safeplan/internal/traffic"
)

// Chain describes the stop-and-go chain a Stepper runs.  Vehicle 0 is the
// exogenous head (the stop-and-go lead), vehicle 1 the planner-driven ego,
// and vehicles 2..N−1 analytic followers; link ℓ carries vehicle ℓ's
// broadcasts and readings to vehicle ℓ+1.  Car following is the chain
// {Vehicles: 2}; package platoon resolves its SimConfig to longer ones.
type Chain struct {
	// Vehicles is the chain length N including the head (≥ 2).
	Vehicles int
	// Spacing is the initial bumper gap of the follower links [m].
	Spacing float64
	// LinkComms and LinkSensorDisturb, when non-empty, hold one entry per
	// link; empty selects SimConfig.Comms and SimConfig.SensorDisturb for
	// every link.
	LinkComms         []comms.Config
	LinkSensorDisturb []disturb.SensorModel
	// TGap is the speed term of the scored gap requirement [s]: a follower
	// at speed v must keep Scenario.PGap + TGap·v behind its predecessor.
	// Zero is the fixed gap Scenario.PGap, the car-following Violation.
	TGap float64
	// Follower is the control law of vehicles 2..N−1.
	Follower Expert
}

func (c *Chain) linkComms(cfg *SimConfig, l int) comms.Config {
	if len(c.LinkComms) > 0 {
		return c.LinkComms[l]
	}
	return cfg.Comms
}

func (c *Chain) linkSensorDisturb(cfg *SimConfig, l int) disturb.SensorModel {
	if len(c.LinkSensorDisturb) > 0 {
		return c.LinkSensorDisturb[l]
	}
	return cfg.SensorDisturb
}

// link bundles one V2V link's per-episode machinery: the channel and
// sensor stream from vehicle ℓ to vehicle ℓ+1, the receiver's fusion
// filter, and the latest estimate/knowledge built from them.
type link struct {
	channel  *comms.Channel
	sens     *sensor.Model
	filt     *fusion.Filter
	sensProc disturb.SensorProcess // nil unless the link has a sensing-fault model

	est      fusion.Estimate
	k        Knowledge
	lastMeas sensor.Reading
	haveMeas bool
}

// Stepper is the resumable stop-and-go chain engine — the car-following
// twin of sim.MultiStepper, sharing sim's StepInput / StepOutcome vocabulary so
// streaming services drive every scenario through one interface.  A
// two-vehicle chain is the car-following episode; longer chains are the
// platoon extension.  Injected messages and readings are fused before the
// step's own traffic: with one link every event goes to it, otherwise
// messages route to link Sender−1 and readings to link Target−1 (1-based
// vehicle indices, matching the engine's own traffic) and out-of-range
// indices are dropped.
//
// The same lifetime rules apply as for sim.MultiStepper: not safe for
// concurrent use, and pooled inside the episode's arena (via the arena's
// opaque external-engine slot; a nil Options.Scratch gets a fresh one).
type Stepper struct {
	cfg   SimConfig
	ch    Chain
	agent Agent
	opts  sim.Options

	gs *sim.GuardedStep

	driver *traffic.StopAndGo

	links  []link
	states []dynamics.State // states[i] is vehicle i; 0 = head, 1 = ego
	accels []float64        // applied accel of vehicle i at the last step

	fAcc   []float64 // follower commands this step (index by vehicle, i ≥ 2)
	fEmerg []bool

	// Per-link episode statistics (index ℓ = link vehicle ℓ → ℓ+1), kept
	// for chains longer than one link only.
	gap0      []float64
	minGap    []float64
	peakErr   []float64
	linkEmerg []int

	msgTick, sensTick comms.Ticker
	msgBuf            []comms.Message

	coll telemetry.Collector

	plan  func() (float64, bool)
	emerg func() float64
	env   func() (float64, float64, bool)

	t  float64
	si sim.StepInfo // invariant payload, refilled per link every step

	dt       float64
	maxSteps int
	step     int

	res      sim.Result
	done     bool
	finished bool
	err      error
}

// pooledStepper fetches the arena's pooled chain engine, or a fresh one
// when the slot holds nothing usable.
func pooledStepper(sh *sim.Scratch) *Stepper {
	if st, ok := sh.ExtEngine().(*Stepper); ok && st != nil {
		return st
	}
	st := &Stepper{}
	sh.SetExtEngine(st)
	return st
}

// grown returns s resized to n with every element zeroed, reusing the
// backing array when it is large enough.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewStepper validates cfg and builds a resumable car-following engine —
// the two-vehicle chain — positioned before step 0.
func NewStepper(cfg SimConfig, agent Agent, opts sim.Options) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewChainStepper(cfg, Chain{Vehicles: 2}, agent, opts)
}

// NewChainStepper builds a resumable engine over the chain ch positioned
// before step 0.  It does not validate: cfg and ch come from a validated
// configuration (NewStepper, platoon.NewStepper).
//
// The random streams derive from the master in a fixed order: head
// driver, then for each link ℓ = 0..N−2 the channel and sensor streams,
// then the init stream, then (last, so configurations without sensing
// faults keep their per-seed behaviour) the per-link sensing-disturbance
// streams in link order, then the guard/fault streams.
func NewChainStepper(cfg SimConfig, ch Chain, agent Agent, opts sim.Options) (*Stepper, error) {
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	if opts.Scratch == nil {
		opts.Scratch = sim.NewScratch()
	}
	sh := opts.Scratch
	sh.Begin()
	st := pooledStepper(sh)
	st.reset(cfg, ch, agent, opts)
	n := ch.Vehicles
	sc := &st.cfg.Scenario

	master := sh.RNG(opts.Seed)
	var err error
	st.driver, err = sh.StopAndGo(cfg.Lead, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	st.links = grown(st.links, n-1)
	for l := range st.links {
		lk := &st.links[l]
		lk.channel, err = sh.Channel(ch.linkComms(&st.cfg, l), sh.RNG(master.Int63()))
		if err != nil {
			return nil, err
		}
		lk.sens, err = sh.Sensor(cfg.Sensor, sh.RNG(master.Int63()))
		if err != nil {
			return nil, err
		}
		// Every link's filter propagates with the scenario's Lead limits —
		// the same worst case the monitor assumes for the predecessor.  For
		// follower links (targets moving under Ego limits) soundness
		// therefore additionally assumes Ego ⊆ Lead actuation bounds, which
		// the defaults satisfy with equality.
		lk.filt, err = sh.Fusion(fusion.Config{
			Limits:    sc.Lead,
			Sensor:    cfg.Sensor,
			UseKalman: cfg.InfoFilter,
			Replay:    cfg.InfoFilter,
		})
		if err != nil {
			return nil, err
		}
	}
	initRng := sh.RNG(master.Int63())
	for l := range st.links {
		if m := ch.linkSensorDisturb(&st.cfg, l); m != nil {
			st.links[l].sensProc = m.NewSensor(sh.RNG(master.Int63()))
		}
	}
	st.gs, err = sim.NewGuardedStep(cfg.Guard, cfg.PlannerFault, sc.Ego, master)
	if err != nil {
		return nil, err
	}

	st.states = grown(st.states, n)
	st.accels = grown(st.accels, n)
	st.fAcc = grown(st.fAcc, n)
	st.fEmerg = grown(st.fEmerg, n)
	st.states[0] = sc.LeadInit
	st.states[1] = sc.EgoInit
	for i := 2; i < n; i++ {
		st.states[i] = dynamics.State{P: sc.EgoInit.P - float64(i-1)*ch.Spacing, V: sc.EgoInit.V}
	}
	if cfg.LeadSpeedMax > 0 {
		// One draw: the whole chain starts at the sampled equilibrium speed.
		v := cfg.LeadSpeedMin + initRng.Float64()*(cfg.LeadSpeedMax-cfg.LeadSpeedMin)
		for i := range st.states {
			st.states[i].V = v
		}
	}
	for l := range st.links {
		st.links[l].filt.InitExact(0, st.states[l], 0)
	}

	if n > 2 {
		st.gap0 = grown(st.gap0, n-1)
		st.minGap = grown(st.minGap, n-1)
		st.peakErr = grown(st.peakErr, n-1)
		st.linkEmerg = grown(st.linkEmerg, n-1)
		for l := 0; l < n-1; l++ {
			g := st.states[l].P - st.states[l+1].P
			st.gap0[l] = g
			st.minGap[l] = g
		}
	}

	st.msgTick = comms.MakeTicker(cfg.DtM)
	st.msgTick.Due(0)
	st.sensTick = comms.MakeTicker(cfg.DtS)
	st.sensTick.Due(0)

	st.msgBuf = sh.MsgBuf()
	st.coll = opts.Collector

	st.dt = sc.DtC
	st.maxSteps = int(horizon/st.dt) + 1

	if st.plan == nil {
		// Built once per pooled Stepper (see sim.MultiStepper): the closures
		// read the receiver's fields at call time.  The ego is states[1]
		// and its knowledge is link 0's, refreshed before the guard runs.
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.states[1], st.links[0].k) }
		st.emerg = func() float64 { return st.cfg.Scenario.EmergencyAccel(st.states[1]) }
		// Car following has no committed regime: outside the unsafe and
		// boundary sets any admissible command is one-step safe, so the
		// envelope is the full actuation range there and κ_e-only inside
		// them.
		st.env = func() (float64, float64, bool) {
			sc, ego, sound := &st.cfg.Scenario, st.states[1], st.links[0].k.Sound
			if sc.InUnsafeSet(ego, sound) || sc.InBoundarySafeSet(ego, sound) {
				return 0, 0, false
			}
			return sc.Ego.AMin, sc.Ego.AMax, true
		}
	}
	return st, nil
}

// reset clears per-episode state while keeping the reusable closures and
// slice backing arrays.
func (st *Stepper) reset(cfg SimConfig, ch Chain, agent Agent, opts sim.Options) {
	*st = Stepper{
		cfg: cfg, ch: ch, agent: agent, opts: opts,
		plan: st.plan, emerg: st.emerg, env: st.env,
		links: st.links[:0], states: st.states[:0], accels: st.accels[:0],
		fAcc: st.fAcc[:0], fEmerg: st.fEmerg[:0],
		gap0: st.gap0[:0], minGap: st.minGap[:0], peakErr: st.peakErr[:0], linkEmerg: st.linkEmerg[:0],
	}
}

// States returns the true state of every vehicle in the chain, head
// first.  The slice is the engine's own: read it before the next Step.
func (st *Stepper) States() []dynamics.State { return st.states }

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *Stepper) Done() bool { return st.done || st.err != nil }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *Stepper) Err() error { return st.err }

// linkOf routes an injected event by its 1-based vehicle index.
func (st *Stepper) linkOf(i int) *link {
	switch {
	case len(st.links) == 1:
		return &st.links[0]
	case i >= 1 && i <= len(st.links):
		return &st.links[i-1]
	}
	return nil
}

// Step advances the episode by one control step; see sim.MultiStepper.Step.
func (st *Stepper) Step(in sim.StepInput) (sim.StepOutcome, error) {
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
	sc := &cfg.Scenario
	res := &st.res
	links := st.links
	states := st.states

	// 0. Externally streamed events (sessions only; empty in the closed
	// run loop).
	for _, m := range in.Messages {
		if lk := st.linkOf(m.Sender); lk != nil {
			lk.filt.OnMessage(m)
		}
	}
	for _, r := range in.Readings {
		if lk := st.linkOf(r.Target); lk != nil {
			lk.filt.OnReading(r)
		}
	}

	// 1. Per-link traffic and estimation, in chain order.  Each link's
	// sender broadcasts its own true state; the receiver fuses whatever the
	// disturbed channel and sensor deliver.
	msgAt, msgDue := st.msgTick.Due(t)
	sensAt, sensDue := st.sensTick.Due(t)
	for l := range links {
		lk := &links[l]
		pred := states[l]
		predA := st.accels[l]
		if msgDue {
			lk.channel.Send(comms.Message{Sender: l + 1, T: msgAt, P: pred.P, V: pred.V, A: predA})
		}
		st.msgBuf = lk.channel.PollAppend(t, st.msgBuf[:0])
		for _, m := range st.msgBuf {
			lk.filt.OnMessage(m)
		}
		if sensDue {
			drop := false
			var bias float64
			if lk.sensProc != nil {
				d := lk.sensProc.Next(sensAt)
				drop = d.Drop
				bias = d.Bias
			}
			if !drop {
				lk.lastMeas = lk.sens.MeasureBiased(l+1, sensAt, pred, predA, bias)
				lk.haveMeas = true
				lk.filt.OnReading(lk.lastMeas)
			}
		}
		est := &lk.est
		lk.filt.EstimateInto(est, t)
		if !est.P.Contains(pred.P) || !est.V.Contains(pred.V) {
			res.FusedIntervalMisses++
		}
		if !est.SoundP.Contains(pred.P) || !est.SoundV.Contains(pred.V) {
			res.SoundViolations++
		}
		// Written field by field: every field of both estimates, in
		// place (see DESIGN.md, hot-path rules).
		k := &lk.k
		k.Sound.P, k.Sound.V = est.SoundP, est.SoundV
		k.Fused.P, k.Fused.V = est.P, est.V
		k.Sound.PointP, k.Sound.PointV, k.Sound.A = est.PointP, est.PointV, est.A
		k.Fused.PointP, k.Fused.PointV, k.Fused.A = est.PointP, est.PointV, est.A
	}

	// 2. The ego under the guard, timed for telemetry; the probe reports
	// link 0, the ego's own link.
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
		est := &links[0].est
		st.coll.OnStep(telemetry.StepProbe{
			T:          t,
			Emergency:  emergency,
			SoundWidth: est.SoundP.Width(),
			FusedWidth: est.P.Width(),
			PlannerNs:  time.Since(start).Nanoseconds(),
		})
		if st.gs != nil {
			st.gs.Report(st.coll, t, gres)
		}
	}
	if emergency {
		res.EmergencySteps++
	}

	// 3. Analytic followers: κ_e when their link's sound estimate puts
	// them in the unsafe or boundary safe set, the expert cruise law on
	// the fused estimate otherwise — the monitor half of the compound
	// design, applied per link.
	for i := 2; i < len(states); i++ {
		k := &links[i-1].k
		if sc.InUnsafeSet(states[i], k.Sound) || sc.InBoundarySafeSet(states[i], k.Sound) {
			st.fAcc[i] = sc.EmergencyAccel(states[i])
			st.fEmerg[i] = true
			st.linkEmerg[i-1]++
		} else {
			st.fAcc[i] = st.ch.Follower.Accel(t, states[i], k.Fused, sc.Lead.AMin)
			st.fEmerg[i] = false
		}
	}

	if len(st.opts.Invariants) > 0 {
		for l := range links {
			a, em := a0, emergency
			if l >= 1 {
				a, em = st.fAcc[l+1], st.fEmerg[l+1]
			}
			si := &st.si
			si.T, si.Vehicle, si.Ego, si.Other, si.OtherA = t, l, states[l+1], states[l], st.accels[l]
			si.Est = links[l].est
			si.Accel, si.Emergency = a, em
			si.GuardState, si.GuardFault, si.GuardFallback = "", "", ""
			if l == 0 && st.gs != nil {
				st.gs.Annotate(si, gres)
			}
			if ierr := sim.CheckStepInvariants(st.opts.Invariants, si); ierr != nil {
				st.err = ierr
				return st.terminalOutcome(), ierr
			}
		}
	}

	if st.opts.Trace {
		// Reuse the shared sample layout, reporting the ego's link: the
		// head plays the oncoming vehicle's role, and the passing-window
		// columns are NaN (car following has no crossing window).
		lk := &links[0]
		est := &lk.est
		s := sim.Sample{
			T:    t,
			EgoP: states[1].P, EgoV: states[1].V, EgoA: a0,
			OncP: states[0].P, OncV: states[0].V, OncA: st.accels[0],
			MeasP: math.NaN(), MeasV: math.NaN(),
			EstP: est.PointP, EstV: est.PointV,
			EstPLo: est.P.Lo, EstPHi: est.P.Hi,
			EstVLo: est.V.Lo, EstVHi: est.V.Hi,
			SoundPLo: est.SoundP.Lo, SoundPHi: est.SoundP.Hi,
			SoundVLo: est.SoundV.Lo, SoundVHi: est.SoundV.Hi,
			SoundLo: math.NaN(), SoundHi: math.NaN(),
			ConsLo: math.NaN(), ConsHi: math.NaN(),
			AggrLo: math.NaN(), AggrHi: math.NaN(),
			Emergency: emergency,
		}
		if lk.haveMeas {
			s.MeasP, s.MeasV = lk.lastMeas.P, lk.lastMeas.V
		}
		res.Trace = append(res.Trace, s)
	}

	// 4. Dynamics: ego, then head, then the followers front to back.
	var ba float64
	if len(cfg.LeadScript) > 0 {
		ba = sim.ScriptAccel(cfg.LeadScript, step)
	} else {
		ba = st.driver.Accel(t, states[0])
	}
	states[1], st.accels[1] = dynamics.Step(states[1], a0, st.dt, sc.Ego)
	states[0], st.accels[0] = dynamics.Step(states[0], ba, st.dt, sc.Lead)
	for i := 2; i < len(states); i++ {
		states[i], st.accels[i] = dynamics.Step(states[i], st.fAcc[i], st.dt, sc.Ego)
	}
	res.Steps++
	st.step++

	if len(st.gap0) > 0 {
		for l := range links {
			gap := states[l].P - states[l+1].P
			if gap < st.minGap[l] {
				st.minGap[l] = gap
			}
			if e := math.Abs(gap - st.gap0[l]); e > st.peakErr[l] {
				st.peakErr[l] = e
			}
		}
	}

	out := sim.StepOutcome{
		T: t, Step: step,
		Accel: a0, Emergency: emergency,
		EgoP: states[1].P, EgoV: states[1].V,
	}

	for l := range links {
		req := sc.PGap
		if st.ch.TGap != 0 {
			req += st.ch.TGap * states[l+1].V
		}
		if states[l].P-states[l+1].P < req {
			res.Collided = true
			res.Eta = -1
			st.done = true
			out.Done, out.Collided = true, true
			return out, nil
		}
	}
	if sc.ReachedGoal(states[1]) {
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
func (st *Stepper) terminalOutcome() sim.StepOutcome {
	out := sim.StepOutcome{
		T: st.t, Step: st.step,
		Done: true, Collided: st.res.Collided, Reached: st.res.Reached,
	}
	if len(st.states) > 1 {
		out.EgoP, out.EgoV = st.states[1].P, st.states[1].V
	}
	return out
}

// Run drives the episode to its end with no injected input and finishes
// it: the closed loop behind RunEpisode and platoon.RunEpisode.
func (st *Stepper) Run() (sim.Result, error) {
	for {
		out, err := st.Step(sim.StepInput{})
		if err != nil || out.Done {
			return st.Finish()
		}
	}
}

// Finish finalizes the episode; see sim.MultiStepper.Finish.  For chains
// longer than one link it publishes the per-link statistics before the
// episode invariants run, so chain-level invariants (platoon's
// StringStability) can read them; a two-vehicle chain leaves Links nil.
func (st *Stepper) Finish() (sim.Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	if len(st.gap0) > 0 {
		st.res.Links = make([]sim.LinkStats, len(st.links))
		for l := range st.res.Links {
			st.res.Links[l] = sim.LinkStats{
				MinGap:         st.minGap[l],
				PeakGapErr:     st.peakErr[l],
				EmergencySteps: st.linkEmerg[l],
			}
		}
	}
	sim.ReportOutcome(st.coll, st.opts.Seed, &st.res)
	if st.gs != nil {
		st.res.Guard = st.gs.Stats()
	}
	if st.err == nil && len(st.opts.Invariants) > 0 {
		st.err = sim.CheckEpisodeInvariants(st.opts.Invariants, &st.res)
	}
	return st.res, st.err
}
