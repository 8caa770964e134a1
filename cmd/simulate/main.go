// Command simulate runs one closed-loop episode of the unprotected left
// turn — or a campaign of them — and prints the outcome, optionally the
// full per-step trace as CSV and a telemetry metrics dump.
//
// Usage:
//
//	simulate [-planner cons|aggr] [-design pure|basic|ultimate]
//	         [-setting none|delayed|lost] [-seed 1] [-trace]
//	         [-episodes N] [-workers N] [-metrics text|json]
//	         [-disturb PRESET] [-sensordisturb PRESET]
//	         [-guard] [-plannerfault PRESET]
//	         [-models DIR]   (use trained NN planners instead of the experts)
//
// -disturb overrides the channel with a named adversarial disturbance
// model (burst loss, jitter+reordering, stale replay, scripted blackout);
// -sensordisturb injects sensing faults (bias drift, bursty dropout).
// -guard wraps every planner call in the compute-fault guard;
// -plannerfault injects a named compute-fault model into the planner
// (panics, NaN outputs, stuck/biased commands, latency spikes) and
// installs the guard automatically.  Run with an unknown name (e.g.
// -disturb list) to see the presets.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/eval"
	"safeplan/internal/experiments"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
	"safeplan/internal/textio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	var (
		plKind   = flag.String("planner", "cons", "embedded planner κ_n: cons or aggr")
		design   = flag.String("design", "ultimate", "agent design: pure, basic, or ultimate")
		setting  = flag.String("setting", "none", "communication setting: none, delayed, or lost")
		seed     = flag.Int64("seed", 1, "episode seed (campaigns use seed…seed+N−1)")
		trace    = flag.Bool("trace", false, "dump the per-step trace as CSV to stdout (single episode only)")
		episodes = flag.Int("episodes", 1, "number of episodes (>1 runs a seed-paired campaign)")
		workers  = flag.Int("workers", 0, "campaign worker goroutines (0: one per core)")
		metrics  = flag.String("metrics", "", "dump telemetry metrics: text or json")
		models   = flag.String("models", "", "directory with trained NN models (empty: analytic experts)")
		dist     = flag.String("disturb", "", "adversarial channel disturbance preset (overrides -setting comms)")
		sensDist = flag.String("sensordisturb", "", "adversarial sensing disturbance preset")
		guardOn  = flag.Bool("guard", false, "wrap planner calls in the compute-fault guard")
		plFault  = flag.String("plannerfault", "", "planner compute-fault preset (implies -guard)")
	)
	flag.Parse()

	cfg := sim.DefaultConfig()
	switch *setting {
	case "none":
	case "delayed":
		cfg.Comms = comms.Delayed(experiments.DelayedDelay, experiments.DelayedDropProb)
	case "lost":
		cfg.Comms = comms.Lost()
		cfg.Sensor = sensor.Uniform(experiments.LostSensorDelta)
	default:
		log.Fatalf("unknown setting %q", *setting)
	}
	if *dist != "" {
		m, err := disturb.Preset(*dist)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Comms = comms.Disturbed(m)
	}
	if *sensDist != "" {
		m, err := disturb.SensorPreset(*sensDist)
		if err != nil {
			log.Fatal(err)
		}
		cfg.SensorDisturb = m
	}
	if *guardOn {
		gc := guard.DefaultConfig(cfg.Scenario.Ego)
		cfg.Guard = &gc
	}
	if *plFault != "" {
		m, err := faultinject.Preset(*plFault)
		if err != nil {
			log.Fatal(err)
		}
		cfg.PlannerFault = m
	}
	settingDesc := *setting
	if *dist != "" {
		settingDesc += " +disturb:" + *dist
	}
	if *sensDist != "" {
		settingDesc += " +sensor:" + *sensDist
	}
	if *plFault != "" {
		settingDesc += " +fault:" + *plFault
	}

	pl, err := experiments.ResolvePlanners(cfg.Scenario, *models, false, 0)
	if err != nil {
		log.Fatal(err)
	}
	var kn planner.Planner
	switch *plKind {
	case "cons":
		kn = pl.Cons
	case "aggr":
		kn = pl.Aggr
	default:
		log.Fatalf("unknown planner %q", *plKind)
	}

	var coll *telemetry.Metrics
	var c telemetry.Collector
	switch *metrics {
	case "":
	case "text", "json":
		coll = telemetry.NewMetrics()
		c = coll
	default:
		log.Fatalf("unknown -metrics format %q (want text or json)", *metrics)
	}

	var agent core.Agent
	var comp *core.Compound
	switch *design {
	case "pure":
		agent = &core.PureNN{Cfg: cfg.Scenario, Planner: kn}
	case "basic":
		comp = core.NewBasic(cfg.Scenario, kn)
	case "ultimate":
		comp = core.NewUltimate(cfg.Scenario, kn)
		cfg.InfoFilter = true
	default:
		log.Fatalf("unknown design %q", *design)
	}
	if comp != nil {
		// Compound agents additionally report monitor selections.
		comp.Collector = c
		agent = comp
	}

	fmt.Printf("agent:    %s\n", agent.Name())
	if *episodes > 1 {
		rs, err := campaign.Results(campaign.Spec{
			Name:      agent.Name(),
			Episodes:  *episodes,
			BaseSeed:  *seed,
			Workers:   *workers,
			Collector: c,
		}, campaign.LeftTurn(cfg, agent))
		if err != nil {
			log.Fatal(err)
		}
		st := eval.Aggregate(rs)
		fmt.Printf("setting:  %s  seeds: %d…%d\n", settingDesc, *seed, *seed+int64(*episodes)-1)
		fmt.Printf("outcome:  safe %d/%d (%.2f%%), reached %d, mean η = %.4f\n",
			st.Safe, st.N, 100*st.SafeRate(), st.Reached, st.MeanEta)
		dumpCampaignGuard(rs)
		dumpMetrics(coll, *metrics)
		return
	}

	r, err := sim.Run(cfg, agent, sim.Options{Seed: *seed, Trace: *trace, Collector: c})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("setting:  %s  seed: %d\n", settingDesc, *seed)
	switch {
	case r.Collided:
		fmt.Printf("outcome:  COLLISION (η = %.3f)\n", r.Eta)
	case r.Reached:
		fmt.Printf("outcome:  reached target in %.2f s (η = %.4f)\n", r.ReachTime, r.Eta)
	default:
		fmt.Printf("outcome:  timeout (η = 0)\n")
	}
	fmt.Printf("steps:    %d, emergency steps: %d (%.2f%%)\n",
		r.Steps, r.EmergencySteps, 100*r.EmergencyFrequency())
	if r.Guard.PlannerCalls > 0 {
		g := r.Guard
		fmt.Printf("guard:    %d faults (%d panic, %d non-finite, %d range, %d deadline), "+
			"fallbacks %d last-good + %d κ_e, bypass %d, worst state %s\n",
			g.Faults, g.Panics, g.NonFinite, g.RangeRejects, g.Deadline,
			g.FallbackLastGood, g.FallbackEmergency, g.BypassSteps, g.WorstState)
	}
	dumpMetrics(coll, *metrics)

	if *trace {
		dumpTrace(r)
	}
}

// dumpCampaignGuard prints the summed guard counters of a campaign, or
// nothing when no episode ran guarded.
func dumpCampaignGuard(rs []sim.Result) {
	var calls, faults, lastGood, emrg, bypass int
	worst := guard.Nominal
	episodesWithFaults := 0
	for _, r := range rs {
		g := r.Guard
		calls += g.PlannerCalls
		faults += g.Faults
		lastGood += g.FallbackLastGood
		emrg += g.FallbackEmergency
		bypass += g.BypassSteps
		if g.Faults > 0 {
			episodesWithFaults++
		}
		if g.WorstState > worst {
			worst = g.WorstState
		}
	}
	if calls == 0 {
		return
	}
	fmt.Printf("guard:    %d faults over %d episodes (%d with ≥1 fault), "+
		"fallbacks %d last-good + %d κ_e, bypass %d, worst state %s\n",
		faults, len(rs), episodesWithFaults, lastGood, emrg, bypass, worst)
}

// dumpMetrics prints the telemetry snapshot in the requested format.
func dumpMetrics(m *telemetry.Metrics, format string) {
	if m == nil {
		return
	}
	s := m.Snapshot()
	switch format {
	case "json":
		out, err := s.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	default:
		fmt.Print("--- telemetry ---\n")
		if err := s.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func dumpTrace(r sim.Result) {
	tb := textio.NewTable("t", "ego_p", "ego_v", "ego_a", "onc_p", "onc_v",
		"est_p", "est_v", "cons_lo", "cons_hi", "aggr_lo", "aggr_hi", "emergency")
	for _, s := range r.Trace {
		tb.AddRow(
			textio.F(s.T, 2), textio.F(s.EgoP, 3), textio.F(s.EgoV, 3), textio.F(s.EgoA, 2),
			textio.F(s.OncP, 3), textio.F(s.OncV, 3),
			textio.F(s.EstP, 3), textio.F(s.EstV, 3),
			textio.F(s.ConsLo, 2), textio.F(s.ConsHi, 2),
			textio.F(s.AggrLo, 2), textio.F(s.AggrHi, 2),
			fmt.Sprint(s.Emergency),
		)
	}
	if err := tb.CSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
