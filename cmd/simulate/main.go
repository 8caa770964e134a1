// Command simulate runs one closed-loop episode of a registered
// workload — or a campaign of them — and prints the outcome, optionally
// the full per-step trace as CSV and a telemetry metrics dump.
//
// Usage:
//
//	simulate [-workload NAME] [-seed 1] [-trace]
//	         [-episodes N] [-workers N] [-metrics text|json]
//
// NAME is any workload of the internal/workloads registry (campaignd
// -list prints them): a cmd/bench row or smoke case such as
// none/ultimate-conservative (the default), delayed/ultimate-aggressive,
// disturb-burst/ultimate-conservative or fault-worst/ultimate-conservative
// (the guarded design under a planner-fault preset), or a design cell of
// one of the paper's studies such as table1/messages-delayed/basic or
// worstcase/worst-case/ultimate.  The certify/* workloads load the
// trained models from ./models.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"safeplan/internal/campaign"
	"safeplan/internal/eval"
	"safeplan/internal/guard"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
	"safeplan/internal/textio"
	"safeplan/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "none/ultimate-conservative", "registered workload name (campaignd -list prints them)")
		seed     = fs.Int64("seed", 1, "episode seed (campaigns use seed…seed+N−1)")
		trace    = fs.Bool("trace", false, "dump the per-step trace as CSV (single episode only)")
		episodes = fs.Int("episodes", 1, "number of episodes (>1 runs a seed-paired campaign)")
		workers  = fs.Int("workers", 0, "campaign worker goroutines (0: one per core)")
		metrics  = fs.String("metrics", "", "dump telemetry metrics: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *episodes < 1:
		return fmt.Errorf("-episodes %d: need at least one episode", *episodes)
	case *trace && *episodes > 1:
		return fmt.Errorf("-trace records a single episode, not a campaign of %d", *episodes)
	case *metrics != "" && *metrics != "text" && *metrics != "json":
		return fmt.Errorf("unknown -metrics format %q (want text or json)", *metrics)
	}
	wl, err := workloads.Lookup(*workload, "models")
	if err != nil {
		return err
	}
	// The campaign adapters attach the collector to a compound agent, so
	// it also counts the monitor's decisions.
	var coll *telemetry.Metrics
	var c telemetry.Collector
	if *metrics != "" {
		coll = telemetry.NewMetrics()
		c = coll
	}

	fmt.Fprintf(w, "agent:    %s\n", wl.Agent)
	if *episodes > 1 {
		rs, err := campaign.Results(campaign.Spec{
			Name:      wl.Name,
			Episodes:  *episodes,
			BaseSeed:  *seed,
			Workers:   *workers,
			Collector: c,
		}, wl.Episode)
		if err != nil {
			return err
		}
		st := eval.Aggregate(rs)
		fmt.Fprintf(w, "workload: %s  seeds: %d…%d\n", wl.Name, *seed, *seed+int64(*episodes)-1)
		fmt.Fprintf(w, "outcome:  safe %d/%d (%.2f%%), reached %d, mean η = %.4f\n",
			st.Safe, st.N, 100*st.SafeRate(), st.Reached, st.MeanEta)
		dumpCampaignGuard(w, rs)
		return dumpMetrics(w, coll, *metrics)
	}

	r, err := wl.Episode(sim.Options{Seed: *seed, Trace: *trace, Collector: c})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %s  seed: %d\n", wl.Name, *seed)
	switch {
	case r.Collided:
		fmt.Fprintf(w, "outcome:  COLLISION (η = %.3f)\n", r.Eta)
	case r.Reached:
		fmt.Fprintf(w, "outcome:  reached target in %.2f s (η = %.4f)\n", r.ReachTime, r.Eta)
	default:
		fmt.Fprintf(w, "outcome:  timeout (η = 0)\n")
	}
	fmt.Fprintf(w, "steps:    %d, emergency steps: %d (%.2f%%)\n",
		r.Steps, r.EmergencySteps, 100*r.EmergencyFrequency())
	if r.Guard.PlannerCalls > 0 {
		g := r.Guard
		fmt.Fprintf(w, "guard:    %d faults (%d panic, %d non-finite, %d range, %d deadline), "+
			"fallbacks %d last-good + %d κ_e, bypass %d, worst state %s\n",
			g.Faults, g.Panics, g.NonFinite, g.RangeRejects, g.Deadline,
			g.FallbackLastGood, g.FallbackEmergency, g.BypassSteps, g.WorstState)
	}
	if err := dumpMetrics(w, coll, *metrics); err != nil {
		return err
	}
	if *trace {
		return dumpTrace(w, r)
	}
	return nil
}

// dumpCampaignGuard prints the summed guard counters of a campaign, or
// nothing when no episode ran guarded.
func dumpCampaignGuard(w io.Writer, rs []sim.Result) {
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
	fmt.Fprintf(w, "guard:    %d faults over %d episodes (%d with ≥1 fault), "+
		"fallbacks %d last-good + %d κ_e, bypass %d, worst state %s\n",
		faults, len(rs), episodesWithFaults, lastGood, emrg, bypass, worst)
}

// dumpMetrics prints the telemetry snapshot in the requested format.
func dumpMetrics(w io.Writer, m *telemetry.Metrics, format string) error {
	if m == nil {
		return nil
	}
	s := m.Snapshot()
	if format == "json" {
		out, err := s.JSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(out))
		return err
	}
	fmt.Fprint(w, "--- telemetry ---\n")
	return s.WriteText(w)
}

func dumpTrace(w io.Writer, r sim.Result) error {
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
	return tb.CSV(w)
}
