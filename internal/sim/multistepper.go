package sim

import (
	"math/rand"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/sensor"
	"safeplan/internal/traffic"
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
// shared Engine owns the control step's skeleton; the stream adds the
// oncoming vehicles, their knowledge, the left-turn monitor envelope and
// the passing windows.  The engine is a named field, so the skeleton's
// step calls stay out of the stepper's method set.  Run and RunMulti are thin loops over it, and
// long-running services (cmd/serve) hold one per live session, feeding it
// streamed events between calls.
//
// A MultiStepper is not safe for concurrent use.  It is pooled inside the
// episode's Scratch arena and stays valid only until the next
// NewStepper/NewMultiStepper/Run/RunMulti call on the same arena.
type MultiStepper struct {
	eng Engine

	cfg   MultiConfig
	agent core.MultiAgent

	// one runs NewStepper's single-vehicle agent as agent.  It lives in
	// the pooled engine so a warm left-turn episode allocates nothing.
	one oneTrackAgent

	sc  leftturn.Config
	mon monitor.Monitor

	// comp is the single agent when it is a *core.Compound whose verdict
	// is the engine's track-0 verdict: its Cfg and Monitor equal sc and
	// mon, and its monitor reads the sound estimate.  Plan then hands it
	// v0 (Compound.AccelVerdict) in place of its own Assess; nil
	// otherwise.
	comp *core.Compound
	// v0 is mon's verdict on track 0's sound estimate for the current
	// step, assessed on first use (haveV0) by the compound's plan, the
	// guard's envelope or the certifier, and read by all three.
	v0     monitor.Outcome
	haveV0 bool

	// Per-track storage (index i = track i = link i), kept across
	// episodes by the pooled engine.
	tracks []oncomingTrack
	ks     []core.Knowledge
	// Telemetry-probe window scratch (sized only with a collector).
	cons, aggr []interval.Interval

	sensDropRng *rand.Rand

	ego dynamics.State
}

// oncomingTrack is one oncoming vehicle's true state and driver; its
// link carries the rest.
type oncomingTrack struct {
	state  dynamics.State
	accel  float64
	driver *traffic.Driver
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
	if opts.Scratch == nil {
		opts.Scratch = NewScratch()
	}
	sh := opts.Scratch
	sh.Begin()
	// Every field of the pooled engine is set below; its slices keep
	// their backing arrays.
	st := Pooled[MultiStepper](sh)
	st.cfg = cfg
	links := st.eng.Begin(&st.cfg.Stack, opts, cfg.Vehicles, st.hooks)
	st.agent = multi
	st.one.Agent = single
	if single != nil {
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
	st.tracks = Zeroed(st.tracks, cfg.Vehicles)
	// Zero spacing selects the documented default; without the fill a
	// zero-valued MultiConfig stacked every oncoming vehicle at the same
	// start position (modulo jitter).
	spacing := cfg.SpacingDist
	if spacing == 0 {
		spacing = DefaultSpacingDist
	}
	offset := 0.0
	for i := range st.tracks {
		tr := &st.tracks[i]
		if i > 0 || order != trackBeforeInit {
			seeds = [3]int64{master.Int63(), master.Int63(), master.Int63()}
		}
		var err error
		if tr.driver, err = sh.Driver(cfg.Driver, sh.RNG(seeds[0])); err != nil {
			return nil, err
		}
		if err = st.eng.OpenLink(i, nil, sc.Oncoming, !cfg.NoReplay, sh.RNG(seeds[1]), sh.RNG(seeds[2])); err != nil {
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
		links[i].Filter.InitExact(0, s, 0)
		tr.state = s
	}
	st.eng.OpenSensing(master, nil)
	st.ego = sc.EgoInit
	if err := st.eng.Arm(Setup{Dt: sc.DtC, Horizon: DefaultHorizon, Ego: &st.ego, Limits: sc.Ego}, master); err != nil {
		return nil, err
	}
	// The guard validates executed commands against the monitor's
	// safe-action envelope, recomputed from the sound estimate (the only
	// basis with a soundness guarantee, regardless of any agent-side
	// monitor ablation).
	st.mon = monitor.New(sc)
	st.comp = nil
	if ag, ok := single.(*core.Compound); ok && ag.Cfg == sc && ag.Monitor == st.mon && !ag.MonitorOnFused {
		st.comp = ag
	}
	st.ks = Zeroed(st.ks, cfg.Vehicles)
	if st.eng.coll != nil {
		st.cons = Zeroed(st.cons, cfg.Vehicles)
		st.aggr = Zeroed(st.aggr, cfg.Vehicles)
	}
	if cfg.Certify != nil {
		if err := st.eng.cert.init(cfg.Certify, sc.Ego, single); err != nil {
			return nil, err
		}
		st.eng.certOn = true
		if st.eng.gs != nil {
			st.eng.gs.SetCertifiedRange(st.eng.certFn)
		}
	}
	return st, nil
}

// hooks builds the pooled engine's hooks, and its certified-range
// closure alongside.
func (st *MultiStepper) hooks() Hooks {
	// Verified mode exists for the left turn alone (MultiConfig refuses
	// Certify), so the range is track 0's.
	st.eng.certFn = func() (float64, float64, bool) {
		c := &st.eng.cert
		var v0 *monitor.Outcome
		if st.comp != nil {
			v0 = st.verdict0()
		}
		c.lo, c.hi, c.ok = c.rangeAt(st.eng.t, st.ego, &st.sc, &st.ks[0], v0)
		return c.lo, c.hi, c.ok
	}
	return Hooks{
		Plan: func() (float64, bool) {
			if st.comp != nil {
				return st.comp.AccelVerdict(st.eng.t, st.ego, &st.ks[0], *st.verdict0())
			}
			return st.agent.Accel(st.eng.t, st.ego, st.ks)
		},
		Emergency: func() float64 { return st.sc.EmergencyAccel(st.ego) },
		// Per-track envelopes intersect: the ego must satisfy every
		// vehicle's commitment guard at once, exactly as the multi-vehicle
		// compound resolves them (an empty intersection or any emergency
		// verdict admits only κ_e).  Track 0's is the step's v0.
		Envelope: func() (float64, float64, bool) {
			lo, hi := st.sc.Ego.AMin, st.sc.Ego.AMax
			for i := range st.ks {
				var v monitor.Outcome
				if i == 0 {
					v = *st.verdict0()
				} else {
					v = st.mon.Assess(st.ego, st.sc.ConservativeWindow(st.ks[i].Sound))
				}
				tlo, thi, ok := v.Envelope(st.sc.Ego)
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
		},
	}
}

// verdict0 returns the step's v0, assessing it on first use.
func (st *MultiStepper) verdict0() *monitor.Outcome {
	if !st.haveV0 {
		st.v0 = st.mon.Assess(st.ego, st.sc.ConservativeWindow(st.ks[0].Sound))
		st.haveV0 = true
	}
	return &st.v0
}

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *MultiStepper) Done() bool { return st.eng.Done() }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *MultiStepper) Err() error { return st.eng.Err() }

// Finish finalizes the episode; it is idempotent and, called
// mid-episode, settles the partial result (see Engine.Finish).
func (st *MultiStepper) Finish() (Result, error) { return st.eng.Finish() }

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
	tk, ok := st.eng.Start(in)
	if !ok {
		return st.eng.Terminal()
	}
	cfg := &st.cfg
	sc := &st.sc
	tracks := st.tracks

	// Per track: channel, sensing (subject to injected dropout, drawn in
	// track order, and the sensor disturbance model) and fusion.
	for i := range tracks {
		tr := &tracks[i]
		drop := tk.Sensing && cfg.SensorDropProb > 0 && st.sensDropRng.Float64() < cfg.SensorDropProb
		est := st.eng.Exchange(i, tr.state, tr.accel, drop)
		// Written field by field: every field of both estimates, in
		// place (see DESIGN.md, hot-path rules).
		k := &st.ks[i]
		k.Sound.P, k.Sound.V = est.SoundP, est.SoundV
		k.Fused.P, k.Fused.V = est.P, est.V
		k.Sound.PointP, k.Sound.PointV, k.Sound.A = est.PointP, est.PointV, est.A
		k.Fused.PointP, k.Fused.PointV, k.Fused.A = est.PointP, est.PointV, est.A
	}

	st.haveV0 = false
	a0, emergency := st.eng.Decide()
	if st.eng.Probing() {
		st.eng.Report(multiStepProbe(sc, st.ks, st.cons, st.aggr))
	}
	if st.eng.Checking() {
		for i := range tracks {
			if !st.eng.Check(i, st.ego, tracks[i].state, tracks[i].accel, a0, emergency, true) {
				return st.eng.Terminal()
			}
		}
	}
	if st.eng.Tracing() {
		k := &st.ks[0]
		st.eng.Trace(tracks[0].state, tracks[0].accel,
			sc.ConservativeWindow(k.Sound), sc.ConservativeWindow(k.Fused), sc.AggressiveWindow(k.Fused))
	}

	st.ego, _ = dynamics.Step(st.ego, a0, st.eng.dt, sc.Ego)
	for i := range tracks {
		tr := &tracks[i]
		var ba float64
		if len(cfg.OncomingScript) > 0 {
			ba = ScriptAccel(cfg.OncomingScript, tk.Step)
		} else {
			ba = tr.driver.Accel(tk.T, tr.state)
		}
		tr.state, tr.accel = dynamics.Step(tr.state, ba, st.eng.dt, sc.Oncoming)
	}
	collided := false
	for i := range tracks {
		if sc.Collision(st.ego, tracks[i].state) {
			collided = true
			break
		}
	}
	return st.eng.End(collided, sc.ReachedTarget(st.ego))
}
