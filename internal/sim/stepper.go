package sim

import (
	"math"
	"math/rand"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/sensor"
	"safeplan/internal/telemetry"
	"safeplan/internal/traffic"
)

// StepInput carries externally streamed events into one control step of a
// resumable Stepper.  The zero value reproduces the closed run loop
// exactly: the internal world generates its own V2V broadcasts
// and sensor readings.  A streaming session (cmd/serve) injects received
// events here; they are fused *before* this step's internally generated
// traffic, so a zero input leaves the byte-exact legacy behaviour intact.
type StepInput struct {
	// Messages are additional V2V messages delivered to the fusion filter
	// at the top of this step, bypassing the simulated channel (a streamed
	// message already survived its real network).  In the multi-vehicle
	// engine the Sender field (1-based track index) routes each message to
	// its track; out-of-range senders are ignored.
	Messages []comms.Message
	// Readings are additional sensor readings fused at the top of this
	// step.  In the multi-vehicle engine the Target field (1-based track
	// index) routes each reading; out-of-range targets are ignored.
	Readings []sensor.Reading
}

// StepOutcome reports one executed control step of a Stepper.
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

// Stepper is the resumable single-vehicle episode engine: it owns every
// piece of per-episode state the closed Run loop used to keep on its
// stack — the channel, sensor, fusion filter, guard state machine, RNG
// streams, and the scratch arena — and advances one control step per Step
// call.  Run is a thin loop over it (the parity tests pin byte-identical
// results), and long-running services (cmd/serve) hold one Stepper per
// live session, feeding it streamed events between calls.
//
// A Stepper is not safe for concurrent use.  When Options.Scratch is set
// the Stepper itself is pooled inside the arena and stays valid only until
// the next NewStepper/Run call on the same arena — the same lifetime
// discipline the arena's other components already require.
type Stepper struct {
	cfg   Config
	agent core.Agent
	opts  Options

	sc  leftturn.Config
	mon monitor.Monitor
	gs  *GuardedStep

	driver   *traffic.Driver
	channel  *comms.Channel
	sens     *sensor.Model
	filt     *fusion.Filter
	sensProc disturb.SensorProcess

	sensDropRng *rand.Rand

	ego, onc dynamics.State
	oncA     float64

	msgTick, sensTick comms.Ticker
	msgBuf            []comms.Message
	lastMeas          sensor.Reading
	haveMeas          bool

	coll telemetry.Collector

	// Hot-path closures, built once per Stepper (not per episode): they
	// capture only the receiver pointer and read its fields at call time,
	// so a pooled Stepper re-runs episodes without re-allocating them.
	plan   func() (float64, bool)
	emerg  func() float64
	env    func() (float64, float64, bool)
	certFn func() (float64, float64, bool)

	// Verified-mode state (Config.Certify); certOn gates every use, so a
	// disabled run pays one bool check per step.  cert.scr survives reset
	// like the closures, keeping pooled verified episodes allocation-free.
	cert   certifier
	certOn bool

	t    float64
	know core.Knowledge
	si   StepInfo // invariant payload, refilled every step

	dt       float64
	maxSteps int
	step     int

	res      Result
	done     bool
	finished bool
	err      error
}

// NewStepper validates cfg and builds a resumable episode engine
// positioned before step 0.  It performs exactly the per-episode setup of
// the closed loop — same RNG derivation order, same component
// construction — so a Stepper-driven episode is byte-identical to the
// historical Run.
func NewStepper(cfg Config, agent core.Agent, opts Options) (*Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	sh := opts.Scratch
	sh.Begin()
	st := sh.stepper()
	st.reset(cfg, agent, opts)

	master := sh.RNG(opts.Seed)
	// Independent streams, seeded deterministically from the master in the
	// historical order: driver, channel, sensor, init, sensor-drop, then
	// the disturbance stream last so legacy configurations keep their
	// exact per-seed behaviour.
	driverRng := sh.RNG(master.Int63())
	chanRng := sh.RNG(master.Int63())
	sensRng := sh.RNG(master.Int63())
	initRng := sh.RNG(master.Int63())
	st.sensDropRng = sh.RNG(master.Int63())
	if cfg.SensorDisturb != nil {
		st.sensProc = cfg.SensorDisturb.NewSensor(sh.RNG(master.Int63()))
	}
	// Planner-fault streams derive after the disturbance streams, under the
	// same compatibility rule.
	gs, err := NewGuardedStep(cfg.Guard, cfg.PlannerFault, cfg.Scenario.Ego, master)
	if err != nil {
		return nil, err
	}
	st.gs = gs
	// The guard validates executed commands against the monitor's
	// safe-action envelope, recomputed from the sound estimate (the only
	// basis with a soundness guarantee, regardless of any agent-side
	// monitor ablation).
	st.mon = monitor.New(cfg.Scenario)

	st.driver, err = sh.Driver(cfg.Driver, driverRng)
	if err != nil {
		return nil, err
	}
	st.channel, err = sh.Channel(cfg.Comms, chanRng)
	if err != nil {
		return nil, err
	}
	st.sens, err = sh.Sensor(cfg.Sensor, sensRng)
	if err != nil {
		return nil, err
	}
	st.filt, err = sh.Fusion(fusion.Config{
		Limits:    cfg.Scenario.Oncoming,
		Sensor:    cfg.Sensor,
		UseKalman: cfg.InfoFilter,
		Replay:    cfg.InfoFilter && !cfg.NoReplay,
	})
	if err != nil {
		return nil, err
	}

	sc := cfg.Scenario
	st.sc = sc
	st.ego = sc.EgoInit
	st.onc = sc.OncomingInit
	if cfg.OncomingStartSpread > 0 {
		st.onc.P -= initRng.Float64() * cfg.OncomingStartSpread
	}
	if cfg.OncomingSpeedMax > 0 {
		st.onc.V = cfg.OncomingSpeedMin + initRng.Float64()*(cfg.OncomingSpeedMax-cfg.OncomingSpeedMin)
	}

	// The scenario starts with a handshake broadcast: the initial oncoming
	// state is known exactly (paper §IV assumes C0 obtains p1, v1; all
	// later knowledge flows through the disturbed channel and sensors).
	st.filt.InitExact(0, st.onc, 0)

	st.msgTick = comms.MakeTicker(cfg.DtM)
	st.msgTick.Due(0) // initial broadcast consumed by InitExact
	st.sensTick = comms.MakeTicker(cfg.DtS)
	st.sensTick.Due(0)

	st.msgBuf = sh.MsgBuf()
	st.coll = opts.Collector

	st.dt = sc.DtC
	st.maxSteps = int(horizon/st.dt) + 1

	if cfg.Certify != nil {
		if err := st.cert.init(cfg.Certify, sc.Ego, agent); err != nil {
			return nil, err
		}
		st.certOn = true
	}

	if st.plan == nil {
		// Built once per pooled Stepper; the closures read the receiver's
		// fields, so reuse across episodes adds no per-episode allocation.
		st.plan = func() (float64, bool) { return st.agent.Accel(st.t, st.ego, st.know) }
		st.emerg = func() float64 { return st.sc.EmergencyAccel(st.ego) }
		st.env = func() (float64, float64, bool) {
			return st.mon.Assess(st.ego, st.sc.ConservativeWindow(st.know.Sound)).Envelope(st.sc.Ego)
		}
		st.certFn = func() (float64, float64, bool) {
			st.cert.lo, st.cert.hi, st.cert.ok = st.cert.rangeAt(st.t, st.ego, &st.sc, st.know)
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
func (st *Stepper) reset(cfg Config, agent core.Agent, opts Options) {
	plan, emerg, env, certFn := st.plan, st.emerg, st.env, st.certFn
	certScr := st.cert.scr
	*st = Stepper{plan: plan, emerg: emerg, env: env, certFn: certFn}
	st.cert.scr = certScr
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

// Step advances the episode by one control step.  The input can inject
// externally streamed V2V messages and sensor readings (see StepInput); a
// zero input reproduces the closed run loop byte for byte.  After the terminal
// step (or after an error) further calls return the terminal outcome
// unchanged.
func (st *Stepper) Step(in StepInput) (StepOutcome, error) {
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

	// 0. Externally streamed events (sessions only; empty in the closed
	// run loop).
	for _, m := range in.Messages {
		st.filt.OnMessage(m)
	}
	for _, r := range in.Readings {
		st.filt.OnReading(r)
	}

	// 1. Periodic V2V broadcast of C1's current state.
	if at, ok := st.msgTick.Due(t); ok {
		st.channel.Send(comms.Message{Sender: 1, T: at, P: st.onc.P, V: st.onc.V, A: st.oncA})
	}
	// 2. Deliver whatever the channel releases at this instant.
	st.msgBuf = st.channel.PollAppend(t, st.msgBuf[:0])
	for _, m := range st.msgBuf {
		st.filt.OnMessage(m)
	}
	// 3. Periodic onboard sensing (subject to injected dropout and the
	// sensor disturbance model).
	if at, ok := st.sensTick.Due(t); ok {
		drop := cfg.SensorDropProb > 0 && st.sensDropRng.Float64() < cfg.SensorDropProb
		var bias float64
		if st.sensProc != nil {
			d := st.sensProc.Next(at)
			drop = drop || d.Drop
			bias = d.Bias
		}
		if !drop {
			st.lastMeas = st.sens.MeasureBiased(1, at, st.onc, st.oncA, bias)
			st.haveMeas = true
			st.filt.OnReading(st.lastMeas)
		}
	}

	// 4. Fuse and plan.
	est := st.filt.EstimateAt(t)
	if !est.P.Contains(st.onc.P) || !est.V.Contains(st.onc.V) {
		res.FusedIntervalMisses++
	}
	if !est.SoundP.Contains(st.onc.P) || !est.SoundV.Contains(st.onc.V) {
		res.SoundViolations++
	}
	st.know = core.Knowledge{
		Sound: leftturn.OncomingEstimate{
			P: est.SoundP, V: est.SoundV,
			PointP: est.PointP, PointV: est.PointV,
			A: est.A,
		},
		Fused: leftturn.OncomingEstimate{
			P: est.P, V: est.V,
			PointP: est.PointP, PointV: est.PointV,
			A: est.A,
		},
	}
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
		var certW float64
		if st.cert.ok {
			certW = st.cert.hi - st.cert.lo
		}
		st.coll.OnStep(telemetry.StepProbe{
			T:          t,
			Emergency:  emergency,
			SoundWidth: est.SoundP.Width(),
			FusedWidth: est.P.Width(),
			ConsWidth:  sc.ConservativeWindow(st.know.Fused).Width(),
			AggrWidth:  sc.AggressiveWindow(st.know.Fused).Width(),
			PlannerNs:  time.Since(start).Nanoseconds(),
			CertWidth:  certW,
			CertMiss:   gres.CertifiedMiss,
		})
		if st.gs != nil {
			st.gs.Report(st.coll, t, gres)
		}
	}
	if emergency {
		res.EmergencySteps++
	}
	if len(st.opts.Invariants) > 0 {
		si := &st.si
		*si = StepInfo{
			T: t, Ego: st.ego, Other: st.onc, OtherA: st.oncA,
			Est: est, Accel: a0, Emergency: emergency,
		}
		if st.gs != nil {
			st.gs.Annotate(si, gres)
		}
		if ierr := CheckStepInvariants(st.opts.Invariants, si); ierr != nil {
			st.err = ierr
			return st.terminalOutcome(), ierr
		}
	}

	if st.opts.Trace {
		cons := sc.ConservativeWindow(st.know.Fused)
		aggr := sc.AggressiveWindow(st.know.Fused)
		soundW := sc.ConservativeWindow(st.know.Sound)
		s := Sample{
			T:    t,
			EgoP: st.ego.P, EgoV: st.ego.V, EgoA: a0,
			OncP: st.onc.P, OncV: st.onc.V, OncA: st.oncA,
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
		if st.haveMeas {
			s.MeasP, s.MeasV = st.lastMeas.P, st.lastMeas.V
		}
		res.Trace = append(res.Trace, s)
	}

	// 5. Advance the world.
	var behavA float64
	if len(cfg.OncomingScript) > 0 {
		behavA = ScriptAccel(cfg.OncomingScript, step)
	} else {
		behavA = st.driver.Accel(t, st.onc)
	}
	st.ego, _ = dynamics.Step(st.ego, a0, st.dt, sc.Ego)
	st.onc, st.oncA = dynamics.Step(st.onc, behavA, st.dt, sc.Oncoming)
	res.Steps++
	st.step++

	out := StepOutcome{
		T: t, Step: step,
		Accel: a0, Emergency: emergency,
		EgoP: st.ego.P, EgoV: st.ego.V,
	}

	// 6. Outcome checks.
	if sc.Collision(st.ego, st.onc) {
		res.Collided = true
		res.Eta = -1
		st.done = true
		out.Done, out.Collided = true, true
		return out, nil
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
func (st *Stepper) terminalOutcome() StepOutcome {
	return StepOutcome{
		T: st.t, Step: st.step,
		EgoP: st.ego.P, EgoV: st.ego.V,
		Done: true, Collided: st.res.Collided, Reached: st.res.Reached,
	}
}

// Finish finalizes the episode: it reports the outcome to the collector,
// folds the guard's episode statistics into the result, and runs the
// episode-level invariant checks (skipped when a step already failed) —
// exactly the bookkeeping the closed loop performed in its deferred
// epilogue, in the same order.  Finish is idempotent; an abandoned session
// may call it mid-episode to obtain the partial result.
func (st *Stepper) Finish() (Result, error) {
	if st.finished {
		return st.res, st.err
	}
	st.finished = true
	ReportOutcome(st.coll, st.opts.Seed, &st.res)
	if st.gs != nil {
		st.res.Guard = st.gs.Stats()
		// The guard owns the cross-check on guarded runs; fold its
		// counters so Result reads the same either way.
		st.res.CertifiedSteps += st.res.Guard.CertifiedSteps
		st.res.CertifiedRangeMisses += st.res.Guard.CertifiedRangeMisses
	}
	if st.err == nil && len(st.opts.Invariants) > 0 {
		st.err = CheckEpisodeInvariants(st.opts.Invariants, &st.res)
	}
	return st.res, st.err
}
