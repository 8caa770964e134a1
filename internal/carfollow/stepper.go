package carfollow

import (
	"math"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/interval"
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

// Stepper is the resumable stop-and-go chain engine: the shared
// sim.Engine skeleton (the same one sim.MultiStepper holds, with its
// StepInput / StepOutcome vocabulary, so streaming services drive every
// scenario through one interface) plus the chain's vehicles, its
// knowledge, the analytic followers and the per-link statistics.  A
// two-vehicle chain is the car-following episode; longer chains are the
// platoon extension.  Injected messages and readings are fused before the
// step's own traffic: messages route to link Sender−1 and readings to
// link Target−1 (1-based vehicle indices, matching the engine's own
// traffic), and out-of-range indices are dropped.
//
// The same lifetime rules apply as for sim.MultiStepper: not safe for
// concurrent use, and pooled inside the episode's arena (sim.Pooled; a
// nil Options.Scratch gets a fresh one).
type Stepper struct {
	eng sim.Engine

	cfg   SimConfig
	ch    Chain
	agent Agent

	driver *traffic.StopAndGo

	ks     []Knowledge      // ks[ℓ] is link ℓ's knowledge of vehicle ℓ
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
	// Every field of the pooled engine is set below; its slices keep
	// their backing arrays.
	st := sim.Pooled[Stepper](sh)
	st.cfg, st.ch, st.agent = cfg, ch, agent
	n := ch.Vehicles
	links := st.eng.Begin(opts, n-1, st.hooks)
	sc := &st.cfg.Scenario

	master := sh.RNG(opts.Seed)
	var err error
	st.driver, err = sh.StopAndGo(cfg.Lead, sh.RNG(master.Int63()))
	if err != nil {
		return nil, err
	}
	for l := range links {
		lk := &links[l]
		if lk.Channel, err = sh.Channel(ch.linkComms(&st.cfg, l), sh.RNG(master.Int63())); err != nil {
			return nil, err
		}
		if lk.Sensor, err = sh.Sensor(cfg.Sensor, sh.RNG(master.Int63())); err != nil {
			return nil, err
		}
		// Every link's filter propagates with the scenario's Lead limits —
		// the same worst case the monitor assumes for the predecessor.  For
		// follower links (targets moving under Ego limits) soundness
		// therefore additionally assumes Ego ⊆ Lead actuation bounds, which
		// the defaults satisfy with equality.
		lk.Filter, err = sh.Fusion(fusion.Config{
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
	for l := range links {
		if m := ch.linkSensorDisturb(&st.cfg, l); m != nil {
			links[l].SensProc = m.NewSensor(sh.RNG(master.Int63()))
		}
	}
	st.states = sim.Zeroed(st.states, n)
	if err := st.eng.Arm(sim.Setup{
		Dt: sc.DtC, Horizon: horizon, DtM: cfg.DtM, DtS: cfg.DtS, Ego: &st.states[1],
		Guard: cfg.Guard, PlannerFault: cfg.PlannerFault, Limits: sc.Ego,
	}, master); err != nil {
		return nil, err
	}

	st.ks = sim.Zeroed(st.ks, n-1)
	st.accels = sim.Zeroed(st.accels, n)
	st.fAcc = sim.Zeroed(st.fAcc, n)
	st.fEmerg = sim.Zeroed(st.fEmerg, n)
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
	for l := range links {
		links[l].Filter.InitExact(0, st.states[l], 0)
	}

	nStats := 0 // per-link statistics: chains longer than one link only
	if n > 2 {
		nStats = n - 1
	}
	st.gap0 = sim.Zeroed(st.gap0, nStats)
	st.minGap = sim.Zeroed(st.minGap, nStats)
	st.peakErr = sim.Zeroed(st.peakErr, nStats)
	st.linkEmerg = sim.Zeroed(st.linkEmerg, nStats)
	for l := range st.gap0 {
		g := st.states[l].P - st.states[l+1].P
		st.gap0[l], st.minGap[l] = g, g
	}
	return st, nil
}

// hooks builds the pooled engine's hooks: the ego is states[1] and its
// knowledge is link 0's, refreshed before the guard runs.
func (st *Stepper) hooks() sim.Hooks {
	return sim.Hooks{
		Plan:      func() (float64, bool) { return st.agent.Accel(st.eng.Now(), st.states[1], st.ks[0]) },
		Emergency: func() float64 { return st.cfg.Scenario.EmergencyAccel(st.states[1]) },
		// Car following has no committed regime: outside the unsafe and
		// boundary sets any admissible command is one-step safe, so the
		// envelope is the full actuation range there and κ_e-only inside
		// them.
		Envelope: func() (float64, float64, bool) {
			sc, ego, sound := &st.cfg.Scenario, st.states[1], st.ks[0].Sound
			if sc.InUnsafeSet(ego, sound) || sc.InBoundarySafeSet(ego, sound) {
				return 0, 0, false
			}
			return sc.Ego.AMin, sc.Ego.AMax, true
		},
		// Per-link statistics are published before the episode
		// invariants run, so chain-level invariants (platoon's
		// StringStability) can read them; a two-vehicle chain leaves
		// Links nil.
		Finish: func(r *sim.Result) {
			if len(st.gap0) == 0 {
				return
			}
			r.Links = make([]sim.LinkStats, len(st.gap0))
			for l := range r.Links {
				r.Links[l] = sim.LinkStats{
					MinGap:         st.minGap[l],
					PeakGapErr:     st.peakErr[l],
					EmergencySteps: st.linkEmerg[l],
				}
			}
		},
	}
}

// States returns the true state of every vehicle in the chain, head
// first.  The slice is the engine's own: read it before the next Step.
func (st *Stepper) States() []dynamics.State { return st.states }

// Done reports whether the episode has terminated (or a step invariant
// failed); further Step calls are no-ops returning the terminal outcome.
func (st *Stepper) Done() bool { return st.eng.Done() }

// Err returns the step-invariant violation that aborted the episode, if
// any.
func (st *Stepper) Err() error { return st.eng.Err() }

// Finish finalizes the episode; see sim.MultiStepper.Finish.  A chain
// longer than one link publishes its per-link statistics in Result.Links
// first.
func (st *Stepper) Finish() (sim.Result, error) { return st.eng.Finish() }

// Run drives the episode to its end with no injected input and finishes
// it: the closed loop behind RunEpisode and platoon.RunEpisode.
func (st *Stepper) Run() (sim.Result, error) { return sim.Drive(st) }

// Step advances the episode by one control step; see sim.MultiStepper.Step.
func (st *Stepper) Step(in sim.StepInput) (sim.StepOutcome, error) {
	tk, ok := st.eng.Start(in)
	if !ok {
		return st.eng.Terminal()
	}
	t := tk.T
	sc := &st.cfg.Scenario
	states := st.states
	ks := st.ks

	// Per-link traffic and estimation, in chain order.  Each link's
	// sender broadcasts its own true state; the receiver fuses whatever
	// the disturbed channel and sensor deliver.
	for l := range ks {
		est := st.eng.Exchange(l, states[l], st.accels[l], false)
		// Written field by field: every field of both estimates, in
		// place (see DESIGN.md, hot-path rules).
		k := &ks[l]
		k.Sound.P, k.Sound.V = est.SoundP, est.SoundV
		k.Fused.P, k.Fused.V = est.P, est.V
		k.Sound.PointP, k.Sound.PointV, k.Sound.A = est.PointP, est.PointV, est.A
		k.Fused.PointP, k.Fused.PointV, k.Fused.A = est.PointP, est.PointV, est.A
	}

	// The ego under the guard; the probe reports link 0, the ego's own
	// link.
	a0, emergency := st.eng.Decide()
	if st.eng.Probing() {
		st.eng.Report(telemetry.StepProbe{SoundWidth: ks[0].Sound.P.Width(), FusedWidth: ks[0].Fused.P.Width()})
	}

	// Analytic followers: κ_e when their link's sound estimate puts them
	// in the unsafe or boundary safe set, the expert cruise law on the
	// fused estimate otherwise — the monitor half of the compound design,
	// applied per link.
	for i := 2; i < len(states); i++ {
		k := &ks[i-1]
		if sc.InUnsafeSet(states[i], k.Sound) || sc.InBoundarySafeSet(states[i], k.Sound) {
			st.fAcc[i] = sc.EmergencyAccel(states[i])
			st.fEmerg[i] = true
			st.linkEmerg[i-1]++
		} else {
			st.fAcc[i] = st.ch.Follower.Accel(t, states[i], k.Fused, sc.Lead.AMin)
			st.fEmerg[i] = false
		}
	}

	if st.eng.Checking() {
		for l := range ks {
			a, em := a0, emergency
			if l >= 1 {
				a, em = st.fAcc[l+1], st.fEmerg[l+1]
			}
			if !st.eng.Check(l, states[l+1], states[l], st.accels[l], a, em, l == 0) {
				return st.eng.Terminal()
			}
		}
	}

	if st.eng.Tracing() {
		// The ego's link in the shared sample layout: the head plays the
		// oncoming vehicle's role, and the passing-window columns are NaN
		// (car following has no crossing window).
		nan := interval.Interval{Lo: math.NaN(), Hi: math.NaN()}
		st.eng.Trace(states[0], st.accels[0], nan, nan, nan)
	}

	// Dynamics: ego, then head, then the followers front to back.
	var ba float64
	if len(st.cfg.LeadScript) > 0 {
		ba = sim.ScriptAccel(st.cfg.LeadScript, tk.Step)
	} else {
		ba = st.driver.Accel(t, states[0])
	}
	dt := sc.DtC
	states[1], st.accels[1] = dynamics.Step(states[1], a0, dt, sc.Ego)
	states[0], st.accels[0] = dynamics.Step(states[0], ba, dt, sc.Lead)
	for i := 2; i < len(states); i++ {
		states[i], st.accels[i] = dynamics.Step(states[i], st.fAcc[i], dt, sc.Ego)
	}

	if len(st.gap0) > 0 {
		for l := range ks {
			gap := states[l].P - states[l+1].P
			if gap < st.minGap[l] {
				st.minGap[l] = gap
			}
			if e := math.Abs(gap - st.gap0[l]); e > st.peakErr[l] {
				st.peakErr[l] = e
			}
		}
	}

	collided := false
	for l := range ks {
		req := sc.PGap
		if st.ch.TGap != 0 {
			req += st.ch.TGap * states[l+1].V
		}
		if states[l].P-states[l+1].P < req {
			collided = true
			break
		}
	}
	return st.eng.End(collided, sc.ReachedGoal(states[1]))
}
