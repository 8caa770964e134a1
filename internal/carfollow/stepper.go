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

// Stepper is the car-following twin of sim.Stepper: a resumable episode
// engine over the stop-and-go lead scenario, sharing sim's StepInput /
// StepOutcome vocabulary so streaming services drive every scenario
// through one interface.  Injected messages and readings are fused before
// the step's own traffic (the lead's index is 1).
//
// The same lifetime rules apply as for sim.Stepper: not safe for
// concurrent use, and pooled inside the arena (via the arena's opaque
// external-engine slot) when Options.Scratch is set.
type Stepper struct {
	cfg   SimConfig
	agent Agent
	opts  sim.Options

	sc Config
	gs *sim.GuardedStep

	driver   *traffic.StopAndGo
	channel  *comms.Channel
	sens     *sensor.Model
	filt     *fusion.Filter
	sensProc disturb.SensorProcess

	ego, lead dynamics.State
	leadA     float64

	msgTick, sensTick comms.Ticker
	msgBuf            []comms.Message
	lastMeas          sensor.Reading
	haveMeas          bool

	coll telemetry.Collector

	plan  func() (float64, bool)
	emerg func() float64
	env   func() (float64, float64, bool)

	t float64
	k Knowledge

	dt       float64
	maxSteps int
	step     int

	res      sim.Result
	done     bool
	finished bool
	err      error
}

// pooledStepper fetches the arena's pooled car-following engine, or a
// fresh one when the arena is nil or the slot holds nothing usable.
func pooledStepper(sh *sim.Scratch) *Stepper {
	if st, ok := sh.ExtEngine().(*Stepper); ok && st != nil {
		return st
	}
	st := &Stepper{}
	sh.SetExtEngine(st)
	return st
}

// NewStepper validates cfg and builds a resumable car-following engine
// positioned before step 0, performing exactly the per-episode setup of
// the closed RunEpisode loop (same RNG derivation order).
func NewStepper(cfg SimConfig, agent Agent, opts sim.Options) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	sh := opts.Scratch
	sh.Begin()
	st := pooledStepper(sh)
	st.reset(cfg, agent, opts)

	master := sh.RNG(seed)
	var err error
	st.driver, err = sh.StopAndGo(cfg.Lead, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	st.channel, err = sh.Channel(cfg.Comms, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	st.sens, err = sh.Sensor(cfg.Sensor, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	st.filt, err = sh.Fusion(fusion.Config{
		Limits:    cfg.Scenario.Lead,
		Sensor:    cfg.Sensor,
		UseKalman: cfg.InfoFilter,
		Replay:    cfg.InfoFilter,
	})
	if err != nil {
		return nil, err
	}
	initRng := sh.RNG(master.Int63())
	// Disturbance streams derive last so legacy configurations keep their
	// exact per-seed behaviour.
	if cfg.SensorDisturb != nil {
		st.sensProc = cfg.SensorDisturb.NewSensor(sh.RNG(master.Int63()))
	}
	// Planner-fault streams derive after the disturbance streams, under the
	// same compatibility rule.
	gs, err := sim.NewGuardedStep(cfg.Guard, cfg.PlannerFault, cfg.Scenario.Ego, master)
	if err != nil {
		return nil, err
	}
	st.gs = gs

	sc := cfg.Scenario
	st.sc = sc
	st.ego = sc.EgoInit
	st.lead = sc.LeadInit
	if cfg.LeadSpeedMax > 0 {
		st.lead.V = cfg.LeadSpeedMin + initRng.Float64()*(cfg.LeadSpeedMax-cfg.LeadSpeedMin)
		st.ego.V = st.lead.V
	}
	st.filt.InitExact(0, st.lead, 0)

	st.msgTick = comms.MakeTicker(cfg.DtM)
	st.msgTick.Due(0)
	st.sensTick = comms.MakeTicker(cfg.DtS)
	st.sensTick.Due(0)

	st.msgBuf = sh.MsgBuf()
	st.coll = opts.Collector

	st.dt = sc.DtC
	st.maxSteps = int(horizon/st.dt) + 1

	if st.plan == nil {
		// Built once per pooled Stepper (see sim.Stepper): the closures
		// read the receiver's fields at call time.
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.ego, st.k) }
		st.emerg = func() float64 { return st.sc.EmergencyAccel(st.ego) }
		// Car following has no committed regime: outside the unsafe and
		// boundary sets any admissible command is one-step safe, so the
		// envelope is the full actuation range there and κ_e-only inside
		// them.
		st.env = func() (float64, float64, bool) {
			if st.sc.InUnsafeSet(st.ego, st.k.Sound) || st.sc.InBoundarySafeSet(st.ego, st.k.Sound) {
				return 0, 0, false
			}
			return st.sc.Ego.AMin, st.sc.Ego.AMax, true
		}
	}
	return st, nil
}

// reset clears per-episode state while keeping the reusable closures.
func (st *Stepper) reset(cfg SimConfig, agent Agent, opts sim.Options) {
	plan, emerg, env := st.plan, st.emerg, st.env
	*st = Stepper{plan: plan, emerg: emerg, env: env}
	st.cfg = cfg
	st.agent = agent
	st.opts = opts
}

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *Stepper) Done() bool { return st.done || st.err != nil }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *Stepper) Err() error { return st.err }

// Step advances the episode by one control step; see sim.Stepper.Step.
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
	sc := st.sc
	res := &st.res

	// 0. Externally streamed events (sessions only; empty in the closed
	// run loop).
	for _, m := range in.Messages {
		st.filt.OnMessage(m)
	}
	for _, r := range in.Readings {
		st.filt.OnReading(r)
	}

	if at, ok := st.msgTick.Due(t); ok {
		st.channel.Send(comms.Message{Sender: 1, T: at, P: st.lead.P, V: st.lead.V, A: st.leadA})
	}
	st.msgBuf = st.channel.PollAppend(t, st.msgBuf[:0])
	for _, m := range st.msgBuf {
		st.filt.OnMessage(m)
	}
	if at, ok := st.sensTick.Due(t); ok {
		drop := false
		var bias float64
		if st.sensProc != nil {
			d := st.sensProc.Next(at)
			drop = d.Drop
			bias = d.Bias
		}
		if !drop {
			st.lastMeas = st.sens.MeasureBiased(1, at, st.lead, st.leadA, bias)
			st.haveMeas = true
			st.filt.OnReading(st.lastMeas)
		}
	}

	est := st.filt.EstimateAt(t)
	if !est.P.Contains(st.lead.P) || !est.V.Contains(st.lead.V) {
		res.FusedIntervalMisses++
	}
	if !est.SoundP.Contains(st.lead.P) || !est.SoundV.Contains(st.lead.V) {
		res.SoundViolations++
	}
	st.k = Knowledge{
		Sound: LeadEstimate{P: est.SoundP, V: est.SoundV,
			PointP: est.PointP, PointV: est.PointV, A: est.A},
		Fused: LeadEstimate{P: est.P, V: est.V,
			PointP: est.PointP, PointV: est.PointV, A: est.A},
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
	if len(st.opts.Invariants) > 0 {
		si := sim.StepInfo{
			T: t, Ego: st.ego, Other: st.lead, OtherA: st.leadA,
			Est: est, Accel: a0, Emergency: emergency,
		}
		if st.gs != nil {
			st.gs.Annotate(&si, gres)
		}
		if ierr := sim.CheckStepInvariants(st.opts.Invariants, si); ierr != nil {
			st.err = ierr
			return st.terminalOutcome(), ierr
		}
	}

	if st.opts.Trace {
		// Reuse the shared sample layout: the lead plays the oncoming
		// vehicle's role, and the passing-window columns are NaN (car
		// following has no crossing window).
		s := sim.Sample{
			T:    t,
			EgoP: st.ego.P, EgoV: st.ego.V, EgoA: a0,
			OncP: st.lead.P, OncV: st.lead.V, OncA: st.leadA,
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
		if st.haveMeas {
			s.MeasP, s.MeasV = st.lastMeas.P, st.lastMeas.V
		}
		res.Trace = append(res.Trace, s)
	}

	var ba float64
	if len(cfg.LeadScript) > 0 {
		ba = sim.ScriptAccel(cfg.LeadScript, step)
	} else {
		ba = st.driver.Accel(t, st.lead)
	}
	st.ego, _ = dynamics.Step(st.ego, a0, st.dt, sc.Ego)
	st.lead, st.leadA = dynamics.Step(st.lead, ba, st.dt, sc.Lead)
	res.Steps++
	st.step++

	out := sim.StepOutcome{
		T: t, Step: step,
		Accel: a0, Emergency: emergency,
		EgoP: st.ego.P, EgoV: st.ego.V,
	}

	if sc.Violation(st.ego, st.lead) {
		res.Collided = true
		res.Eta = -1
		st.done = true
		out.Done, out.Collided = true, true
		return out, nil
	}
	if sc.ReachedGoal(st.ego) {
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
	return sim.StepOutcome{
		T: st.t, Step: st.step,
		EgoP: st.ego.P, EgoV: st.ego.V,
		Done: true, Collided: st.res.Collided, Reached: st.res.Reached,
	}
}

// Finish finalizes the episode; see sim.Stepper.Finish.
func (st *Stepper) Finish() (sim.Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	sim.ReportOutcome(st.coll, st.opts.Seed, &st.res)
	if st.gs != nil {
		st.res.Guard = st.gs.Stats()
	}
	if st.err == nil && len(st.opts.Invariants) > 0 {
		st.err = sim.CheckEpisodeInvariants(st.opts.Invariants, &st.res)
	}
	return st.res, st.err
}
