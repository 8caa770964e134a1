package sim

import (
	"math"
	"math/rand"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/interval"
	"safeplan/internal/sensor"
	"safeplan/internal/telemetry"
)

// Engine is the scenario-independent half of a resumable episode engine.
// Both engines hold one: MultiStepper (the left turn and the oncoming
// stream) and carfollow.Stepper (car following and the platoon).  It
// owns the link stack (each link's channel, sensor and fusion filter,
// opened from the scenario's Stack), the per-link estimation, the
// control schedule, the guarded and certified plan, the telemetry probe,
// the invariant dispatch, the outcome checks and Finish; Drive is the
// closed loop over either engine.  A scenario supplies its random-stream order, initial states,
// knowledge layout, dynamics and predicates, and writes its Step as one
// pass over the engine's calls:
//
//	Start → Exchange per link → Decide → Report → Check per link →
//	Trace → (dynamics) → End
//
// Every call is a direct method call: inside a step there is no dispatch
// beyond the agent and guard closures.
type Engine struct {
	// Built once per pooled engine and kept across episodes.
	hooks  Hooks
	certFn func() (float64, float64, bool)
	links  []Link
	msgBuf []comms.Message

	// Verified-mode state (Config.Certify, left turn only); certOn gates
	// every use, so a disabled run pays one bool check per step.
	// cert.scr survives Begin like the hooks.
	cert   certifier
	certOn bool

	stack *Stack // the scenario's config, which outlives the episode
	opts  Options
	coll  telemetry.Collector
	gs    *guardedStep
	ego   *dynamics.State // the scenario's ego state

	msgTick, sensTick comms.Ticker
	msgAt, sensAt     float64
	msgDue, sensDue   bool

	t        float64
	dt       float64
	step     int
	maxSteps int

	// The current step's decision.
	a0        float64
	emergency bool
	gres      guard.StepResult
	plannerNs int64
	si        StepInfo // invariant payload, refilled per link

	res      Result
	done     bool
	finished bool
	err      error
}

// Hooks are a scenario's callbacks, built once per pooled engine: they
// capture only the scenario's pointer and read its fields at call time,
// so a pooled engine re-runs episodes without re-allocating them.
type Hooks struct {
	// Plan runs the agent on the current knowledge and reports whether
	// κ_e produced the command.
	Plan func() (float64, bool)
	// Emergency is κ_e at the current ego state, the guard's fallback.
	Emergency func() float64
	// Envelope is the monitor's safe-action interval at the current
	// state, which the guard validates executed commands against.
	Envelope func() (lo, hi float64, ok bool)
	// Finish, when non-nil, publishes scenario statistics into the
	// result before the episode is reported and checked.
	Finish func(*Result)
}

// Link is one V2V link's estimation state: the channel and sensor
// stream from the observed vehicle to the ego (or follower), the
// receiver's fusion filter, its sensing-fault process, the latest
// estimate and the last reading taken.  OpenLink and OpenSensing open
// the components during set-up; Exchange runs them each step.
type Link struct {
	Channel  *comms.Channel
	Sensor   *sensor.Model
	Filter   *fusion.Filter
	SensProc disturb.SensorProcess // nil unless the link has a sensing-fault model

	Est      fusion.Estimate
	Meas     sensor.Reading // the last reading taken (trace rows)
	HaveMeas bool
}

// Setup is what Arm needs of the scenario beyond its stack.
type Setup struct {
	// Dt is the control period [s]; Horizon is the scenario's default
	// episode cutoff [s], used when the stack's Horizon is zero.
	Dt, Horizon float64
	// Ego points at the scenario's ego state, read for step outcomes.
	Ego *dynamics.State
	// Limits are the ego's actuation limits, which fill a guard
	// configured without its own.
	Limits dynamics.Limits
}

// Tick describes the control step Start opened.
type Tick struct {
	T    float64 // simulation time [s]
	Step int     // zero-based index
	// Sensing is set when the onboard sensors take a reading this step.
	Sensing bool
}

// Zeroed returns s resized to n with every element zeroed, reusing the
// backing array when it is large enough: the pooled engines keep their
// per-link storage this way.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// msgBufCap sizes the reusable Poll buffer; a burst delivering more
// messages in one control step simply grows it.
const msgBufCap = 64

// Begin starts an episode over the scenario's stack: it clears the
// previous episode's state, keeping the hooks, the storage and the IBP
// scratch, and returns n zeroed links for OpenLink to open.  hooks builds
// the scenario's hooks; it runs once, on a fresh pooled engine.
// opts.Scratch must be set: the links' components come from it.
func (e *Engine) Begin(stack *Stack, opts Options, n int, hooks func() Hooks) []Link {
	*e = Engine{
		hooks: e.hooks, certFn: e.certFn,
		links: Zeroed(e.links, n), msgBuf: e.msgBuf,
		cert:  certifier{scr: e.cert.scr},
		stack: stack, opts: opts, coll: opts.Collector,
	}
	if e.hooks.Plan == nil {
		e.hooks = hooks()
		e.msgBuf = make([]comms.Message, 0, msgBufCap)
	}
	return e.links
}

// OpenLink opens link i from the stack: its channel on stream chanRng,
// over linkComms[i] when the scenario sets one channel model per link
// and over the stack's Comms otherwise, its sensor on stream sensRng,
// and its fusion filter, which bounds the observed vehicle by limits.
// replay keeps the Kalman component's message replay (the left turn's
// NoReplay ablation clears it).
func (e *Engine) OpenLink(i int, linkComms []comms.Config, limits dynamics.Limits, replay bool, chanRng, sensRng *rand.Rand) error {
	sh, lk := e.opts.Scratch, &e.links[i]
	c := e.stack.Comms
	if len(linkComms) > 0 {
		c = linkComms[i]
	}
	var err error
	if lk.Channel, err = sh.Channel(c, chanRng); err != nil {
		return err
	}
	if lk.Sensor, err = sh.Sensor(e.stack.Sensor, sensRng); err != nil {
		return err
	}
	lk.Filter, err = sh.Fusion(fusion.Config{
		Limits:    limits,
		Sensor:    e.stack.Sensor,
		UseKalman: e.stack.InfoFilter,
		Replay:    e.stack.InfoFilter && replay,
	})
	return err
}

// OpenSensing derives each link's sensing-fault process from master, in
// link order: from linkModels[i] when the scenario sets one model per
// link, from the stack's SensorDisturb otherwise.  A link without a
// model draws no stream.  The scenarios call it after every other link
// stream, so configurations without sensing faults keep their per-seed
// behaviour.
func (e *Engine) OpenSensing(master *rand.Rand, linkModels []disturb.SensorModel) {
	for i := range e.links {
		m := e.stack.SensorDisturb
		if len(linkModels) > 0 {
			m = linkModels[i]
		}
		if m != nil {
			e.links[i].SensProc = m.NewSensor(e.opts.Scratch.RNG(master.Int63()))
		}
	}
}

// Arm completes set-up: it derives the guard's streams from master (the
// last ones an episode derives, so configurations without a guard or a
// fault model keep their per-seed behaviour) and positions the stack's
// schedule before step 0.
func (e *Engine) Arm(s Setup, master *rand.Rand) error {
	st := e.stack
	gs, err := newGuardedStep(st.Guard, st.PlannerFault, s.Limits, master)
	if err != nil {
		return err
	}
	horizon := st.Horizon
	if horizon == 0 {
		horizon = s.Horizon
	}
	e.gs = gs
	e.ego = s.Ego
	e.dt = s.Dt
	e.maxSteps = int(horizon/s.Dt) + 1
	e.msgTick = comms.MakeTicker(st.DtM)
	e.msgTick.Due(0) // initial broadcast consumed by InitExact
	e.sensTick = comms.MakeTicker(st.DtS)
	e.sensTick.Due(0)
	return nil
}

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (e *Engine) Done() bool { return e.done || e.err != nil }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (e *Engine) Err() error { return e.err }

// Start opens the next control step.  It returns false when the episode
// is over (after the terminal step, an invariant failure, or at the
// horizon, which ends it with η = 0); the scenario then returns
// Terminal.  Otherwise it fuses the streamed events, each routed to link
// Sender−1 (readings: Target−1) and dropped when out of range, and runs
// the message and sensing tickers.
func (e *Engine) Start(in StepInput) (Tick, bool) {
	if e.done || e.err != nil {
		return Tick{}, false
	}
	if e.step >= e.maxSteps {
		e.done = true
		return Tick{}, false
	}
	e.t = float64(e.step) * e.dt
	for _, m := range in.Messages {
		if m.Sender >= 1 && m.Sender <= len(e.links) {
			e.links[m.Sender-1].Filter.OnMessage(m)
		}
	}
	for _, r := range in.Readings {
		if r.Target >= 1 && r.Target <= len(e.links) {
			e.links[r.Target-1].Filter.OnReading(r)
		}
	}
	e.msgAt, e.msgDue = e.msgTick.Due(e.t)
	e.sensAt, e.sensDue = e.sensTick.Due(e.t)
	return Tick{T: e.t, Step: e.step, Sensing: e.sensDue}, true
}

// Now returns the simulation time of the current step [s].
func (e *Engine) Now() float64 { return e.t }

// Terminal returns the outcome of a finished (or failed) episode, for
// Step calls past the end.
func (e *Engine) Terminal() (StepOutcome, error) {
	out := StepOutcome{
		T: e.t, Step: e.step,
		Done: true, Collided: e.res.Collided, Reached: e.res.Reached,
	}
	if e.ego != nil {
		out.EgoP, out.EgoV = e.ego.P, e.ego.V
	}
	return out, e.err
}

// Exchange runs link i for the current step: the sender's periodic
// broadcast of its true state, delivery of whatever the channel
// releases, the periodic reading (skipped when drop is set or the
// link's sensing-fault process drops it), and the estimate, counted
// against the truth.  The sender is vehicle i+1 in the 1-based indexing
// of streamed events.
func (e *Engine) Exchange(i int, truth dynamics.State, accel float64, drop bool) *fusion.Estimate {
	lk := &e.links[i]
	if e.msgDue {
		lk.Channel.Send(comms.Message{Sender: i + 1, T: e.msgAt, P: truth.P, V: truth.V, A: accel})
	}
	e.msgBuf = lk.Channel.PollAppend(e.t, e.msgBuf[:0])
	for _, m := range e.msgBuf {
		lk.Filter.OnMessage(m)
	}
	if e.sensDue {
		var bias float64
		if lk.SensProc != nil {
			d := lk.SensProc.Next(e.sensAt)
			drop = drop || d.Drop
			bias = d.Bias
		}
		if !drop {
			lk.Meas = lk.Sensor.MeasureBiased(i+1, e.sensAt, truth, accel, bias)
			lk.HaveMeas = true
			lk.Filter.OnReading(lk.Meas)
		}
	}
	est := &lk.Est
	lk.Filter.EstimateInto(est, e.t)
	if !est.P.Contains(truth.P) || !est.V.Contains(truth.V) {
		e.res.FusedIntervalMisses++
	}
	if !est.SoundP.Contains(truth.P) || !est.SoundV.Contains(truth.V) {
		e.res.SoundViolations++
	}
	return est
}

// Decide plans the ego's command, through the guard when one is
// configured, and in verified mode cross-checks it against the certified
// range.  With a collector attached the decision is timed: this is the
// engines' one wall-clock read.
func (e *Engine) Decide() (float64, bool) {
	var start time.Time
	if e.coll != nil {
		start = time.Now()
	}
	if e.certOn {
		e.cert.lo, e.cert.hi, e.cert.ok = 0, 0, false
	}
	e.gres = guard.StepResult{}
	if e.gs != nil {
		// The guard runs the certified-range cross-check itself (armed via
		// SetCertifiedRange) so misses land in its fault accounting.
		e.a0, e.emergency, e.gres = e.gs.Step(e.t, e.hooks.Plan, e.hooks.Emergency, e.hooks.Envelope)
	} else {
		e.a0, e.emergency = e.hooks.Plan()
		if e.certOn && !e.emergency {
			if lo, hi, ok := e.certFn(); ok {
				e.res.CertifiedSteps++
				// Written so that a NaN bound counts as a miss.
				if !(e.a0 >= lo && e.a0 <= hi) {
					e.res.CertifiedRangeMisses++
					e.gres.CertifiedMiss = true
				}
			}
		}
	}
	if e.coll != nil {
		e.plannerNs = time.Since(start).Nanoseconds()
	}
	if e.emergency {
		e.res.EmergencySteps++
	}
	return e.a0, e.emergency
}

// Probing reports whether a collector is attached; only then does the
// scenario build a probe for Report.
func (e *Engine) Probing() bool { return e.coll != nil }

// Report sends the step's telemetry probe, whose widths the scenario
// filled, and the guard's intervention if any.
func (e *Engine) Report(p telemetry.StepProbe) {
	p.T, p.Emergency, p.PlannerNs = e.t, e.emergency, e.plannerNs
	if e.cert.ok {
		p.CertWidth = e.cert.hi - e.cert.lo
	}
	p.CertMiss = e.gres.CertifiedMiss
	e.coll.OnStep(p)
	if e.gs != nil {
		e.gs.report(e.coll, e.t, e.gres)
	}
}

// Checking reports whether step invariants are attached.
func (e *Engine) Checking() bool { return len(e.opts.Invariants) > 0 }

// Check runs the step invariants on link i: ego observes other (whose
// behavioural acceleration is otherA) through the link's estimate and
// commanded accel.  guarded attaches the guard's verdict (the ego's own
// links).  It returns false on a violation, which ends the episode; the
// scenario then returns Terminal.
func (e *Engine) Check(i int, ego, other dynamics.State, otherA, accel float64, emergency, guarded bool) bool {
	si := &e.si
	si.T, si.Vehicle, si.Ego, si.Other, si.OtherA = e.t, i, ego, other, otherA
	si.Est = e.links[i].Est
	si.Accel, si.Emergency = accel, emergency
	si.GuardState, si.GuardFault, si.GuardFallback = "", "", ""
	if guarded && e.gs != nil {
		e.gs.annotate(si, e.gres)
	}
	for _, inv := range e.opts.Invariants {
		if err := inv.CheckStep(si); err != nil {
			e.err = err
			return false
		}
	}
	return true
}

// Tracing reports whether trace rows are recorded (Options.Trace).
func (e *Engine) Tracing() bool { return e.opts.Trace }

// Trace records the step's row for link 0, before the world advances:
// other is the vehicle it observes, and sound, cons and aggr are the
// scenario's passing windows over its sound and fused knowledge (NaN
// intervals where the scenario has none).
func (e *Engine) Trace(other dynamics.State, otherA float64, sound, cons, aggr interval.Interval) {
	lk := &e.links[0]
	est := &lk.Est
	s := Sample{
		T:    e.t,
		EgoP: e.ego.P, EgoV: e.ego.V, EgoA: e.a0,
		OncP: other.P, OncV: other.V, OncA: otherA,
		MeasP: math.NaN(), MeasV: math.NaN(),
		EstP: est.PointP, EstV: est.PointV,
		EstPLo: est.P.Lo, EstPHi: est.P.Hi,
		EstVLo: est.V.Lo, EstVHi: est.V.Hi,
		ConsLo: cons.Lo, ConsHi: cons.Hi,
		AggrLo: aggr.Lo, AggrHi: aggr.Hi,
		SoundPLo: est.SoundP.Lo, SoundPHi: est.SoundP.Hi,
		SoundVLo: est.SoundV.Lo, SoundVHi: est.SoundV.Hi,
		SoundLo: sound.Lo, SoundHi: sound.Hi,
		Emergency: e.emergency,
	}
	if lk.HaveMeas {
		s.MeasP, s.MeasV = lk.Meas.P, lk.Meas.V
	}
	e.res.Trace = append(e.res.Trace, s)
}

// End closes the step once the scenario has advanced the world: the
// episode ends on a collision, on reaching the target, or at the
// horizon, and Finish scores it.  End is small enough to inline into
// the scenarios' Step.
func (e *Engine) End(collided, reached bool) (StepOutcome, error) {
	e.res.Steps++
	e.step++
	reached = reached && !collided
	e.res.Collided, e.res.Reached = collided, reached
	e.done = collided || reached || e.step >= e.maxSteps
	return StepOutcome{
		T: e.t, Step: e.step - 1,
		Accel: e.a0, Emergency: e.emergency,
		EgoP: e.ego.P, EgoV: e.ego.V,
		Done: e.done, Collided: collided, Reached: reached,
	}, nil
}

// Finish finalizes the episode: it scores η (−1 after a collision,
// 1/reach time at the target, 0 otherwise), publishes the scenario's
// statistics, reports the outcome to the collector, folds the guard's
// episode statistics into the result, and runs the episode-level
// invariant checks (skipped when a step already failed).  Finish is
// idempotent; an abandoned session may call it mid-episode to obtain the
// partial result.
func (e *Engine) Finish() (Result, error) {
	if e.finished {
		return e.res, e.err
	}
	e.finished = true
	switch {
	case e.res.Collided:
		e.res.Eta = -1
	case e.res.Reached:
		e.res.ReachTime = e.t + e.dt
		e.res.Eta = 1 / e.res.ReachTime
	}
	if e.hooks.Finish != nil {
		e.hooks.Finish(&e.res)
	}
	if e.coll != nil {
		r := &e.res
		e.coll.OnEpisode(telemetry.EpisodeOutcome{
			Seed:                e.opts.Seed,
			Reached:             r.Reached,
			Collided:            r.Collided,
			Eta:                 r.Eta,
			ReachTime:           r.ReachTime,
			Steps:               r.Steps,
			EmergencySteps:      r.EmergencySteps,
			FusedIntervalMisses: r.FusedIntervalMisses,
			SoundViolations:     r.SoundViolations,
		})
	}
	if e.gs != nil {
		e.res.Guard = e.gs.Stats()
		// The guard owns the certified-range cross-check on guarded runs;
		// fold its counters so Result reads the same either way.
		e.res.CertifiedSteps += e.res.Guard.CertifiedSteps
		e.res.CertifiedRangeMisses += e.res.Guard.CertifiedRangeMisses
	}
	if e.err == nil {
		for _, inv := range e.opts.Invariants {
			if err := inv.CheckEpisode(&e.res); err != nil {
				e.err = err
				break
			}
		}
	}
	return e.res, e.err
}

// Drive steps an engine to the end of its episode with no injected
// input and finishes it: the closed loop behind every Run* entry point
// of both engines.  It is generic rather than a stored Step closure,
// whose extra call layer cost a measurable share of a step.
func Drive[S interface {
	Step(StepInput) (StepOutcome, error)
	Finish() (Result, error)
}](st S) (Result, error) {
	for {
		out, err := st.Step(StepInput{})
		if err != nil || out.Done {
			return st.Finish()
		}
	}
}
