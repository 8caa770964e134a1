package platoon

import (
	"math"
	"time"

	"safeplan/internal/carfollow"
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

// link bundles one V2V link's per-episode machinery: the channel and
// sensor stream from vehicle ℓ to vehicle ℓ+1, the receiver's fusion
// filter, and the latest estimate/knowledge built from them.
type link struct {
	channel  *comms.Channel
	sens     *sensor.Model
	filt     *fusion.Filter
	sensProc disturb.SensorProcess // nil unless the link has a sensing-fault model

	est      fusion.Estimate
	k        carfollow.Knowledge
	lastMeas sensor.Reading
	haveMeas bool
}

// Stepper is the platoon twin of carfollow.Stepper: a resumable episode
// engine over the N-vehicle chain, sharing sim's StepInput / StepOutcome
// vocabulary.  Injected messages are routed to link Sender−1 and injected
// readings to link Target−1 (1-based vehicle indices, matching the
// engine's own traffic).
//
// For Vehicles = 2 the per-step work — RNG derivation, channel/sensor/
// filter traffic, monitor decisions, trace layout, termination — is
// operation-for-operation the car-following engine's, which is what the
// byte-parity differential test pins.
//
// The same lifetime rules apply as for carfollow.Stepper: not safe for
// concurrent use, and pooled inside the arena's opaque external-engine
// slot when Options.Scratch is set.
type Stepper struct {
	cfg   SimConfig
	agent carfollow.Agent
	opts  sim.Options

	sc carfollow.Config // effective link scenario (see SimConfig.LinkScenario)
	gs *sim.GuardedStep

	driver *traffic.StopAndGo

	links  []link
	states []dynamics.State // states[i] is vehicle i; 0 = head, 1 = NN ego
	accels []float64        // applied accel of vehicle i at the last step

	fAcc   []float64 // follower commands this step (index by vehicle, i ≥ 2)
	fEmerg []bool

	// Per-link episode statistics (index ℓ = link vehicle ℓ → ℓ+1).
	gap0      []float64
	minGap    []float64
	peakErr   []float64
	linkEmerg []int

	follower carfollow.Expert

	msgTick, sensTick comms.Ticker
	msgBuf            []comms.Message

	coll telemetry.Collector

	plan  func() (float64, bool)
	emerg func() float64
	env   func() (float64, float64, bool)

	t  float64
	k  carfollow.Knowledge
	si sim.StepInfo // invariant payload, refilled per link every step

	dt       float64
	maxSteps int
	step     int

	res      sim.Result
	done     bool
	finished bool
	err      error
}

// pooledStepper fetches the arena's pooled platoon engine, or a fresh one
// when the arena is nil or the slot holds a different scenario's engine.
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
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// NewStepper validates cfg and builds a resumable platoon engine
// positioned before step 0.
//
// The random streams derive from the master in the car-following order,
// extended link by link: head driver, then for each link ℓ = 0..N−2 the
// channel and sensor streams, then the init stream, then (last, under the
// legacy compatibility rule) the per-link sensing-disturbance streams in
// link order, then the guard/fault streams.  With Vehicles = 2 the
// derivation collapses exactly to carfollow.NewStepper's.
func NewStepper(cfg SimConfig, agent carfollow.Agent, opts sim.Options) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = carfollow.DefaultHorizon
	}
	sh := opts.Scratch
	sh.Begin()
	st := pooledStepper(sh)
	st.reset(cfg, agent, opts)

	n := cfg.Vehicles
	sc := cfg.LinkScenario()
	st.sc = sc

	master := sh.RNG(seed)
	var err error
	st.driver, err = sh.StopAndGo(cfg.Lead, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	st.links = grown(st.links, n-1)
	for l := range st.links {
		lk := &st.links[l]
		lk.channel, err = sh.Channel(cfg.linkComms(l), sh.RNG(master.Int63()))
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
	// Disturbance streams derive last so legacy configurations keep their
	// exact per-seed behaviour (carfollow rule, applied in link order).
	for l := range st.links {
		if m := cfg.linkSensorDisturb(l); m != nil {
			st.links[l].sensProc = m.NewSensor(sh.RNG(master.Int63()))
		}
	}
	// Planner-fault streams derive after the disturbance streams, under the
	// same compatibility rule.
	gs, err := sim.NewGuardedStep(cfg.Guard, cfg.PlannerFault, sc.Ego, master)
	if err != nil {
		return nil, err
	}
	st.gs = gs

	st.states = grown(st.states, n)
	st.accels = grown(st.accels, n)
	st.fAcc = grown(st.fAcc, n)
	st.fEmerg = grown(st.fEmerg, n)
	st.states[0] = sc.LeadInit
	st.states[1] = sc.EgoInit
	sp := cfg.spacing()
	for i := 2; i < n; i++ {
		st.states[i] = dynamics.State{P: sc.EgoInit.P - float64(i-1)*sp, V: sc.EgoInit.V}
	}
	if cfg.LeadSpeedMax > 0 {
		// One draw, as in carfollow: the whole chain starts at the sampled
		// equilibrium speed.
		v := cfg.LeadSpeedMin + initRng.Float64()*(cfg.LeadSpeedMax-cfg.LeadSpeedMin)
		for i := range st.states {
			st.states[i].V = v
		}
	}
	for l := range st.links {
		st.links[l].filt.InitExact(0, st.states[l], 0)
	}

	st.gap0 = grown(st.gap0, n-1)
	st.minGap = grown(st.minGap, n-1)
	st.peakErr = grown(st.peakErr, n-1)
	st.linkEmerg = grown(st.linkEmerg, n-1)
	for l := 0; l < n-1; l++ {
		g := st.states[l].P - st.states[l+1].P
		st.gap0[l] = g
		st.minGap[l] = g
	}

	fg := cfg.Follow.fill()
	st.follower = carfollow.Expert{
		Cfg:     sc,
		Headway: fg.Headway, Buffer: fg.Buffer,
		GainGap: fg.GainGap, GainSpeed: fg.GainSpeed,
		Label: "platoon-follower",
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
		// Built once per pooled Stepper: the closures read the receiver's
		// fields at call time.  The NN vehicle is states[1]; its knowledge
		// is link 0's, refreshed each step before the guard runs.
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.states[1], st.k) }
		st.emerg = func() float64 { return st.sc.EmergencyAccel(st.states[1]) }
		st.env = func() (float64, float64, bool) {
			if st.sc.InUnsafeSet(st.states[1], st.k.Sound) || st.sc.InBoundarySafeSet(st.states[1], st.k.Sound) {
				return 0, 0, false
			}
			return st.sc.Ego.AMin, st.sc.Ego.AMax, true
		}
	}
	return st, nil
}

// reset clears per-episode state while keeping the reusable closures and
// slice backing arrays.
func (st *Stepper) reset(cfg SimConfig, agent carfollow.Agent, opts sim.Options) {
	plan, emerg, env := st.plan, st.emerg, st.env
	links, states, accels := st.links[:0], st.states[:0], st.accels[:0]
	fAcc, fEmerg := st.fAcc[:0], st.fEmerg[:0]
	gap0, minGap, peakErr, linkEmerg := st.gap0[:0], st.minGap[:0], st.peakErr[:0], st.linkEmerg[:0]
	*st = Stepper{
		plan: plan, emerg: emerg, env: env,
		links: links, states: states, accels: accels,
		fAcc: fAcc, fEmerg: fEmerg,
		gap0: gap0, minGap: minGap, peakErr: peakErr, linkEmerg: linkEmerg,
	}
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
	links := st.links

	// 0. Externally streamed events (sessions only; empty in the closed
	// run loop), routed to links by 1-based vehicle index.
	for _, m := range in.Messages {
		if m.Sender >= 1 && m.Sender <= len(links) {
			links[m.Sender-1].filt.OnMessage(m)
		}
	}
	for _, r := range in.Readings {
		if r.Target >= 1 && r.Target <= len(links) {
			links[r.Target-1].filt.OnReading(r)
		}
	}

	// 1. Per-link traffic and estimation, in chain order.  Each link's
	// sender broadcasts its own true state; the receiver fuses whatever the
	// disturbed channel and sensor deliver.
	msgAt, msgDue := st.msgTick.Due(t)
	sensAt, sensDue := st.sensTick.Due(t)
	for l := range links {
		lk := &links[l]
		pred := st.states[l]
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
		est := lk.filt.EstimateAt(t)
		lk.est = est
		if !est.P.Contains(pred.P) || !est.V.Contains(pred.V) {
			res.FusedIntervalMisses++
		}
		if !est.SoundP.Contains(pred.P) || !est.SoundV.Contains(pred.V) {
			res.SoundViolations++
		}
		lk.k = carfollow.Knowledge{
			Sound: carfollow.LeadEstimate{P: est.SoundP, V: est.SoundV,
				PointP: est.PointP, PointV: est.PointV, A: est.A},
			Fused: carfollow.LeadEstimate{P: est.P, V: est.V,
				PointP: est.PointP, PointV: est.PointV, A: est.A},
		}
	}
	st.k = links[0].k

	// 2. NN vehicle under the guard, timed for telemetry exactly as in
	// carfollow (the probe reports link 0, the NN vehicle's own link).
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
		est := links[0].est
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
	for i := 2; i < len(st.states); i++ {
		k := links[i-1].k
		if sc.InUnsafeSet(st.states[i], k.Sound) || sc.InBoundarySafeSet(st.states[i], k.Sound) {
			st.fAcc[i] = sc.EmergencyAccel(st.states[i])
			st.fEmerg[i] = true
			st.linkEmerg[i-1]++
		} else {
			st.fAcc[i] = st.follower.Accel(t, st.states[i], k.Fused, sc.Lead.AMin)
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
			*si = sim.StepInfo{
				T: t, Vehicle: l,
				Ego: st.states[l+1], Other: st.states[l], OtherA: st.accels[l],
				Est: links[l].est, Accel: a, Emergency: em,
			}
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
		// Shared sample layout, reporting the NN vehicle's link: the head
		// plays the oncoming vehicle's role, the passing-window columns are
		// NaN — byte-identical to the car-following trace at N = 2.
		lk := &links[0]
		est := lk.est
		s := sim.Sample{
			T:    t,
			EgoP: st.states[1].P, EgoV: st.states[1].V, EgoA: a0,
			OncP: st.states[0].P, OncV: st.states[0].V, OncA: st.accels[0],
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

	// 4. Dynamics, in the car-following order (ego, then head) extended by
	// the followers front to back.
	var ba float64
	if len(cfg.LeadScript) > 0 {
		ba = sim.ScriptAccel(cfg.LeadScript, step)
	} else {
		ba = st.driver.Accel(t, st.states[0])
	}
	st.states[1], st.accels[1] = dynamics.Step(st.states[1], a0, st.dt, sc.Ego)
	st.states[0], st.accels[0] = dynamics.Step(st.states[0], ba, st.dt, sc.Lead)
	for i := 2; i < len(st.states); i++ {
		st.states[i], st.accels[i] = dynamics.Step(st.states[i], st.fAcc[i], st.dt, sc.Ego)
	}
	res.Steps++
	st.step++

	for l := range links {
		gap := st.states[l].P - st.states[l+1].P
		if gap < st.minGap[l] {
			st.minGap[l] = gap
		}
		if e := math.Abs(gap - st.gap0[l]); e > st.peakErr[l] {
			st.peakErr[l] = e
		}
	}

	out := sim.StepOutcome{
		T: t, Step: step,
		Accel: a0, Emergency: emergency,
		EgoP: st.states[1].P, EgoV: st.states[1].V,
	}

	for l := range links {
		if cfg.GapViolation(st.states[l], st.states[l+1]) {
			res.Collided = true
			res.Eta = -1
			st.done = true
			out.Done, out.Collided = true, true
			return out, nil
		}
	}
	if sc.ReachedGoal(st.states[1]) {
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

// Finish finalizes the episode; see sim.Stepper.Finish.  For chains
// longer than one link it publishes the per-link statistics before the
// episode invariants run, so chain-level invariants (StringStability) can
// read them; a two-vehicle platoon leaves Links nil and its Result
// serializes byte-identically to the car-following episode's.
func (st *Stepper) Finish() (sim.Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	if st.cfg.Vehicles > 2 {
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
