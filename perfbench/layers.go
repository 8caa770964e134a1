package main

import (
	"fmt"
	"time"

	"safeplan/internal/carfollow"
	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
)

// engine is what the layer pass drives: every scenario's resumable
// stepper satisfies it.
type engine interface {
	Step(sim.StepInput) (sim.StepOutcome, error)
	Finish() (sim.Result, error)
}

// engineFn builds one episode's engine on a reused scratch arena.
type engineFn func(seed int64, sh *sim.Scratch) (engine, error)

// scenario is one episode engine as the layer pass sees it.
type scenario struct {
	name string
	// links is how many V2V channel/fusion stacks a control step runs;
	// the reconciliation charges the left-turn replay's per-link layer
	// costs that many times.
	links int
	// lt is the left-turn configuration the replays rebuild layers from
	// (left turn only).
	lt *sim.Config
	// build returns the engine constructor; a non-nil probe gets the
	// agent and planner wrapped in timing decorators.
	build func(p *probe) engineFn
}

// probe accumulates the core.Agent and planner decorators' timings and,
// when record is set, the agent's inputs and outputs for the replays.
type probe struct {
	record                   bool
	agentNs, plannerNs       float64
	agentCalls, plannerCalls int64
	calls                    []agentCall
}

type agentCall struct {
	t         float64
	ego       dynamics.State
	k         core.Knowledge
	accel     float64
	emergency bool
}

type timedPlanner struct {
	planner.Planner
	p *probe
}

func (tp timedPlanner) Accel(t float64, ego dynamics.State, w interval.Interval) float64 {
	t0 := time.Now()
	a := tp.Planner.Accel(t, ego, w)
	tp.p.plannerNs += float64(time.Since(t0).Nanoseconds())
	tp.p.plannerCalls++
	return a
}

type timedAgent struct {
	core.Agent
	p *probe
}

func (ta timedAgent) Accel(t float64, ego dynamics.State, k core.Knowledge) (float64, bool) {
	t0 := time.Now()
	a, em := ta.Agent.Accel(t, ego, k)
	ta.p.agentNs += float64(time.Since(t0).Nanoseconds())
	ta.p.agentCalls++
	if ta.p.record {
		ta.p.calls = append(ta.p.calls, agentCall{t, ego, k, a, em})
	}
	return a, em
}

type timedMultiAgent struct {
	core.MultiAgent
	p *probe
}

func (ta timedMultiAgent) Accel(t float64, ego dynamics.State, ks []core.Knowledge) (float64, bool) {
	t0 := time.Now()
	a, em := ta.MultiAgent.Accel(t, ego, ks)
	ta.p.agentNs += float64(time.Since(t0).Nanoseconds())
	ta.p.agentCalls++
	return a, em
}

type timedCFPlanner struct {
	carfollow.Planner
	p *probe
}

func (tp timedCFPlanner) Accel(t float64, ego dynamics.State, lead carfollow.LeadEstimate, brake float64) float64 {
	t0 := time.Now()
	a := tp.Planner.Accel(t, ego, lead, brake)
	tp.p.plannerNs += float64(time.Since(t0).Nanoseconds())
	tp.p.plannerCalls++
	return a
}

type timedCFAgent struct {
	carfollow.Agent
	p *probe
}

func (ta timedCFAgent) Accel(t float64, ego dynamics.State, k carfollow.Knowledge) (float64, bool) {
	t0 := time.Now()
	a, em := ta.Agent.Accel(t, ego, k)
	ta.p.agentNs += float64(time.Since(t0).Nanoseconds())
	ta.p.agentCalls++
	return a, em
}

// leftTurnScenario drives sim.NewStepper with the ultimate compound
// agent around kn.  The decorated agent is not a *core.Compound, which
// verified mode rejects, so the decorated pass runs without Certify; the
// certified range only observes, so the trajectory is the same.
func leftTurnScenario(cfg sim.Config, kn planner.Planner) scenario {
	return scenario{name: "leftturn", links: 1, lt: &cfg, build: func(p *probe) engineFn {
		if p == nil {
			agent := core.NewUltimate(cfg.Scenario, kn)
			return func(seed int64, sh *sim.Scratch) (engine, error) {
				return sim.NewStepper(cfg, agent, sim.Options{Seed: seed, Scratch: sh})
			}
		}
		c := cfg
		c.Certify = nil
		agent := timedAgent{core.NewUltimate(c.Scenario, timedPlanner{kn, p}), p}
		return func(seed int64, sh *sim.Scratch) (engine, error) {
			return sim.NewStepper(c, agent, sim.Options{Seed: seed, Scratch: sh, Trace: p.record})
		}
	}}
}

func multiScenario(cfg sim.MultiConfig, kn planner.Planner) scenario {
	return scenario{name: "multi", links: cfg.Vehicles, build: func(p *probe) engineFn {
		var agent core.MultiAgent = core.NewMultiUltimate(cfg.Scenario, kn)
		if p != nil {
			agent = timedMultiAgent{core.NewMultiUltimate(cfg.Scenario, timedPlanner{kn, p}), p}
		}
		return func(seed int64, sh *sim.Scratch) (engine, error) {
			return sim.NewMultiStepper(cfg, agent, sim.Options{Seed: seed, Scratch: sh})
		}
	}}
}

func carFollowScenario(cfg carfollow.SimConfig, kn carfollow.Planner) scenario {
	return scenario{name: "carfollow", links: 1, build: func(p *probe) engineFn {
		var agent carfollow.Agent = carfollow.NewUltimate(cfg.Scenario, kn)
		if p != nil {
			agent = timedCFAgent{carfollow.NewUltimate(cfg.Scenario, timedCFPlanner{kn, p}), p}
		}
		return func(seed int64, sh *sim.Scratch) (engine, error) {
			return carfollow.NewStepper(cfg, agent, sim.Options{Seed: seed, Scratch: sh})
		}
	}}
}

func platoonScenario(cfg platoon.SimConfig) scenario {
	sc := cfg.LinkScenario()
	kn := carfollow.AggressiveExpert(sc)
	return scenario{name: "platoon", links: cfg.Vehicles - 1, build: func(p *probe) engineFn {
		var agent carfollow.Agent = carfollow.NewUltimate(sc, kn)
		if p != nil {
			agent = timedCFAgent{carfollow.NewUltimate(sc, timedCFPlanner{kn, p}), p}
		}
		return func(seed int64, sh *sim.Scratch) (engine, error) {
			return platoon.NewStepper(cfg, agent, sim.Options{Seed: seed, Scratch: sh})
		}
	}}
}

// expertScenarios are campaign-expert's four engines.
func expertScenarios() []scenario {
	lt, _ := expertLeftTurnDelayed()
	mc := expertMulti()
	cf := expertCarFollow()
	return []scenario{
		leftTurnScenario(lt, planner.ConservativeExpert(lt.Scenario)),
		multiScenario(mc, planner.ConservativeExpert(mc.Scenario)),
		carFollowScenario(cf, carfollow.AggressiveExpert(cf.Scenario)),
		platoonScenario(expertPlatoon()),
	}
}

// certifiedScenarios swaps in the certified NN left turn; the other
// engines are campaign-expert's (the workload runs left turn only).
func certifiedScenarios(m *nnModels) []scenario {
	out := expertScenarios()
	out[0] = leftTurnScenario(certifiedConfig(m.consProp), clonePlanner(m.cons))
	return out
}

// layerSuite is the traced run's shared per-layer pass: drive each
// scenario's engine directly, then replay the recorded left-turn
// episodes through each layer's public API.
type layerSuite struct {
	rc     runConfig
	scen   []scenario
	models *nnModels
	clk    clockCost

	// Set by replay: the channel's delivery ratio over the replayed
	// sends, and the share of steps on which κ_n's command stood.
	sent             int64
	deliveredFrac    float64
	nonEmergencyRate float64
}

func newLayerSuite(rc runConfig, scen []scenario) (*layerSuite, error) {
	m, err := loadNNModels(rc.root)
	if err != nil {
		return nil, err
	}
	return &layerSuite{rc: rc, scen: scen, models: m, clk: calibrateClock()}, nil
}

// driveResult is one pass over a scenario's engine.
type driveResult struct {
	episodes, steps int64
	stepLoopNs      float64
	newNs           []float64
	recorded        []recordedEpisode
}

type recordedEpisode struct {
	seed  int64
	trace []sim.Sample
	calls []agentCall
}

// maxRecorded bounds the episodes kept for the replays.
const maxRecorded = 48

// drive steps fresh episodes of s until the budget is spent (at least
// four), timing construction, the step loop and nothing else.
func (ls *layerSuite) drive(o *outcome, s scenario, p *probe, budget time.Duration, pass string) (driveResult, error) {
	var dr driveResult
	build := s.build(p)
	sh := sim.NewScratch()
	deadline := time.Now().Add(budget)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		seed := baseSeed(ls.rc.seed, 50) + int64(i)
		t0 := time.Now()
		eng, err := build(seed, sh)
		if err != nil {
			return dr, fmt.Errorf("%s: %w", s.name, err)
		}
		t1 := time.Now()
		for {
			out, err := eng.Step(sim.StepInput{})
			if err != nil || out.Done {
				break
			}
		}
		t2 := time.Now()
		r, err := eng.Finish()
		o.attempted++
		if err != nil {
			o.fail(1, "%s seed %d: %v", s.name, seed, err)
		} else if r.Collided || r.SoundViolations > 0 || r.CertifiedRangeMisses > 0 {
			o.fail(1, "%s seed %d: collided %v, %d sound violations, %d certified misses",
				s.name, seed, r.Collided, r.SoundViolations, r.CertifiedRangeMisses)
		}
		id := ls.rc.tr.record(0, "sim.episode."+s.name+"."+pass, t0, time.Since(t0), int64(r.Steps))
		ls.rc.tr.record(id, "sim.new_stepper."+s.name, t0, t1.Sub(t0), 1)
		ls.rc.tr.record(id, "sim.step."+s.name, t1, t2.Sub(t1), int64(r.Steps))
		dr.episodes++
		dr.steps += int64(r.Steps)
		dr.stepLoopNs += float64(t2.Sub(t1).Nanoseconds())
		dr.newNs = append(dr.newNs, float64(t1.Sub(t0).Nanoseconds()))
		if p != nil && p.record {
			if len(dr.recorded) < maxRecorded && len(p.calls) == r.Steps && len(r.Trace) == r.Steps {
				dr.recorded = append(dr.recorded, recordedEpisode{seed, r.Trace, p.calls})
			}
			p.calls = nil
		}
	}
	return dr, nil
}

// layerCost is one replayed layer's per-call self time and its calls
// per control step on the left-turn episodes.
type layerCost struct {
	ns, perStep float64
	calls       int64
}

func (ls *layerSuite) run(o *outcome) error {
	budget := ls.rc.budget(0.4) / time.Duration(2*len(ls.scen))
	stepNs := map[string]float64{}
	agentSelf := map[string]float64{}
	plannerNs := map[string]float64{}
	plannerRate := map[string]float64{}
	var newUs []float64
	var newCalls int64
	var recorded []recordedEpisode
	var ltSteps int64
	for _, s := range ls.scen {
		a, err := ls.drive(o, s, nil, budget, "plain")
		if err != nil {
			return err
		}
		p := &probe{record: s.lt != nil}
		b, err := ls.drive(o, s, p, budget, "decorated")
		if err != nil {
			return err
		}
		stepNs[s.name] = a.stepLoopNs / float64(a.steps)
		o.layer("sim.step_ns."+s.name, stepNs[s.name], a.steps)
		newUs = append(newUs, median(a.newNs)/1e3)
		newCalls += a.episodes
		o.details["sim.new_stepper_ns."+s.name] = summarize(a.newNs)

		// The agent span contains the planner span plus the planner
		// decorator's two clock reads; the planner span contains one
		// empty-interval's worth of clock cost.
		plannerCalls := max(p.plannerCalls, 1)
		plannerNs[s.name] = p.plannerNs/float64(plannerCalls) - ls.clk.empty
		agentSelf[s.name] = (p.agentNs-p.plannerNs-2*ls.clk.read*float64(p.plannerCalls))/float64(p.agentCalls) - ls.clk.empty
		plannerRate[s.name] = float64(p.plannerCalls) / float64(b.steps)
		o.details["agent_self_ns."+s.name] = agentSelf[s.name]
		o.details["planner_ns."+s.name] = plannerNs[s.name]
		if s.lt != nil {
			recorded = b.recorded
			ltSteps = b.steps
			o.layer("core.agent_self_ns", agentSelf[s.name], p.agentCalls)
			o.layer("planner.accel_ns", plannerNs[s.name], p.plannerCalls)
			o.layer("sim.step_self_ns", stepNs[s.name]-agentSelf[s.name]-plannerNs[s.name]*plannerRate[s.name], a.steps)
		}
	}
	o.layer("sim.new_stepper_us", mean(newUs), newCalls)
	o.details["layer_pass_clock"] = map[string]float64{"read_ns": ls.clk.read, "empty_ns": ls.clk.empty}
	if len(recorded) == 0 || ltSteps == 0 {
		return fmt.Errorf("layer pass recorded no left-turn episode")
	}

	lt := ls.ltScenario()
	costs := ls.replay(o, *lt.lt, recorded)
	for name, c := range costs {
		o.layer(name, c.ns, c.calls)
	}
	o.layer("comms.delivered_frac", ls.deliveredFrac, ls.sent)

	// Reconciliation: per-link layer costs times calls per step, plus the
	// scenario's own agent and planner, against the measured step.
	perLink := 0.0
	for _, name := range []string{"comms.send_ns", "comms.poll_ns", "fusion.on_message_ns", "fusion.on_reading_ns", "fusion.estimate_ns"} {
		perLink += costs[name].ns * costs[name].perStep
	}
	cfg := *lt.lt
	for _, s := range ls.scen {
		sum := float64(s.links)*perLink + agentSelf[s.name] + plannerNs[s.name]*plannerRate[s.name]
		if s.lt != nil {
			if cfg.Guard != nil {
				sum += costs["guard.step_ns"].ns + costs["monitor.assess_ns"].ns
			}
			if cfg.Certify != nil {
				rate := ls.nonEmergencyRate
				sum += rate * (costs["leftturn.featurebox_ns"].ns + costs["ibp.propagate_ns"].ns + costs["monitor.assess_ns"].ns)
			}
		}
		o.layer("sim.unattributed_frac."+s.name, 1-sum/stepNs[s.name], 1)
	}
	return nil
}

func (ls *layerSuite) ltScenario() scenario {
	for _, s := range ls.scen {
		if s.lt != nil {
			return s
		}
	}
	panic("layer suite without a left-turn scenario")
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sink keeps replayed results observable so the compiler cannot drop
// the calls.
var sink float64
