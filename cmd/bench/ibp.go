package main

import (
	"encoding/json"
	"log"
	"math"
	"os"
	"runtime"
	"sync"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/experiments"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// ibpBenchReport is the file layout of BENCH_ibp.json: the offline
// certification sweep — every trained-NN design on the clean canonical
// scenario, each episode's executed κ_n commands cross-checked against
// the IBP certified range.
type ibpBenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	EpisodesPerCampaign int   `json:"episodes_per_campaign"`
	BaseSeed            int64 `json:"base_seed"`
	Workers             int   `json:"workers"`

	Campaigns []*ibpCampaignReport `json:"campaigns"`
}

// ibpCampaignReport is one design's row of the certification sweep.
type ibpCampaignReport struct {
	Design string `json:"design"`
	// CertifiedSteps counts executed κ_n commands checked against the
	// certified range; CertifiedRangeMisses must be 0 — the sweep fails
	// otherwise (the certified range is sound, so a miss is a wiring or
	// soundness bug, never expected behaviour).
	CertifiedSteps       int64 `json:"certified_steps"`
	CertifiedRangeMisses int64 `json:"certified_range_misses"`
	// CertWidthMean and CertWidthMax summarize the certified range's
	// width [m/s²] over the certified steps, after the actuation clamp
	// and the monitor clip: how tight the diagnostic bound is.
	CertWidthMean float64 `json:"cert_width_mean"`
	CertWidthMax  float64 `json:"cert_width_max"`

	Report *campaign.Report `json:"report"`
}

// ibpWorkload is one certification campaign: a verified-mode config plus
// a per-worker agent factory (NN planners carry per-call scratch and
// network caches, so unlike the expert planners they cannot be shared
// across campaign workers).
type ibpWorkload struct {
	name     string
	cfg      sim.Config
	newAgent func() core.Agent
}

// pooledEpisodes adapts a workload to an EpisodeFunc that draws a
// per-worker agent from a sync.Pool.  Agents are built from cloned
// networks with identical weights, so the campaign stats stay
// byte-identical at any worker count.
func pooledEpisodes(wl ibpWorkload) campaign.EpisodeFunc {
	pool := &sync.Pool{New: func() any { return wl.newAgent() }}
	return func(opts sim.Options) (sim.Result, error) {
		ag := pool.Get().(core.Agent)
		defer pool.Put(ag)
		return sim.Run(wl.cfg, ag, opts)
	}
}

// certWidths aggregates telemetry.StepProbe.CertWidth over the certified
// steps of a campaign.  The stepper reports a zero width on the steps it
// did not certify; in this sweep (no guard) those are exactly the
// emergency steps, so the non-emergency probes are the certified ones —
// runIBPSweep checks their count against Stats.CertifiedSteps.  The sum
// is kept in fixed point (widthQuantum) so that the mean does not depend
// on the order in which the campaign workers report.  A collector costs
// every step two clock reads and a shared lock, so runIBPSweep attaches
// it only to a second, untimed run of each campaign.
type certWidths struct {
	telemetry.Nop
	mu  sync.Mutex
	n   int64
	sum int64
	max float64
}

// widthQuantum is the fixed-point unit of certWidths.sum [m/s²]; widths
// are at most the actuation span, so the sum cannot overflow int64.
const widthQuantum = 0x1p-32

// OnStep implements telemetry.Collector.
func (c *certWidths) OnStep(p telemetry.StepProbe) {
	if p.Emergency {
		return
	}
	c.mu.Lock()
	c.n++
	c.sum += int64(math.Round(p.CertWidth / widthQuantum))
	c.max = math.Max(c.max, p.CertWidth)
	c.mu.Unlock()
}

// mean returns the mean certified width.
func (c *certWidths) mean() float64 { return float64(c.sum) * widthQuantum / float64(c.n) }

// clonePlanner returns an independent copy of an NN planner: deep-copied
// network (fresh forward caches), shared read-only normalizer.
func clonePlanner(p *planner.NNPlanner) *planner.NNPlanner {
	return &planner.NNPlanner{Label: p.Label, Net: p.Net.Clone(), Norm: p.Norm, Limits: p.Limits}
}

// runIBPSweep is the -ibp mode: the offline certification sweep over the
// scenario state space (ibpSweep), written to BENCH_ibp.json.
func runIBPSweep(n, w int, seed int64, out, modelDir string) {
	report := ibpSweep(n, w, seed, modelDir)
	raw, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := campaign.WriteFileAtomic(out, raw); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d certification campaigns)", out, len(report.Campaigns))
}

// ibpSweep runs the certification sweep, reusing the sharded campaign
// engine.  It loads the committed NN planners, builds one propagator per
// model, runs each design's campaign in verified mode and asserts zero
// certified-range misses.
func ibpSweep(n, w int, seed int64, modelDir string) *ibpBenchReport {
	base := sim.DefaultConfig()
	pl, err := experiments.LoadPlanners(modelDir, base.Scenario)
	if err != nil {
		log.Fatalf("load planners from %s: %v", modelDir, err)
	}
	cons := pl.Cons.(*planner.NNPlanner)
	aggr := pl.Aggr.(*planner.NNPlanner)
	consProp, err := ibp.New(cons.Net, cons.Norm)
	if err != nil {
		log.Fatalf("propagator (cons): %v", err)
	}
	aggrProp, err := ibp.New(aggr.Net, aggr.Norm)
	if err != nil {
		log.Fatalf("propagator (aggr): %v", err)
	}

	mk := func(name string, prop *ibp.Propagator, newAgent func() core.Agent) ibpWorkload {
		cfg := sim.DefaultConfig()
		cfg.InfoFilter = true
		cfg.Certify = &sim.CertifyConfig{Prop: prop}
		return ibpWorkload{name: name, cfg: cfg, newAgent: newAgent}
	}
	sc := base.Scenario
	workloads := []ibpWorkload{
		mk("certify/pure-nn-cons", consProp, func() core.Agent {
			return &core.PureNN{Cfg: sc, Planner: clonePlanner(cons)}
		}),
		mk("certify/basic-nn-cons", consProp, func() core.Agent {
			return core.NewBasic(sc, clonePlanner(cons))
		}),
		mk("certify/ultimate-nn-cons", consProp, func() core.Agent {
			return core.NewUltimate(sc, clonePlanner(cons))
		}),
		mk("certify/ultimate-nn-aggr", aggrProp, func() core.Agent {
			return core.NewUltimate(sc, clonePlanner(aggr))
		}),
	}

	report := &ibpBenchReport{
		GeneratedBy:         "cmd/bench -ibp",
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		EpisodesPerCampaign: n,
		BaseSeed:            seed,
		Workers:             w,
	}
	for _, wl := range workloads {
		// NoCollision stays out of the set: the pure NN baseline has no
		// safety guarantee by design, and this sweep audits certification,
		// not safety.  SoundEstimate still runs — certification rests on it.
		spec := campaign.Spec{
			Name:            wl.name,
			Episodes:        n,
			BaseSeed:        seed,
			Workers:         w,
			Invariants:      []sim.Invariant{sim.SoundEstimate{}},
			CountViolations: true,
		}
		rep, err := campaign.Run(spec, pooledEpisodes(wl))
		if err != nil {
			log.Fatalf("campaign %s: %v", wl.name, err)
		}
		// The widths come from a rerun of the same episodes with the
		// collector attached, so the timed run above carries no telemetry.
		widths := &certWidths{}
		spec.Collector = widths
		if _, err := campaign.Run(spec, pooledEpisodes(wl)); err != nil {
			log.Fatalf("campaign %s (widths): %v", wl.name, err)
		}
		if rep.Stats.CertifiedSteps == 0 {
			log.Fatalf("campaign %s: no step was certified — verified mode never armed", wl.name)
		}
		if rep.Stats.CertifiedRangeMisses != 0 {
			log.Fatalf("campaign %s: %d certified-range misses over %d certified steps (must be 0)",
				wl.name, rep.Stats.CertifiedRangeMisses, rep.Stats.CertifiedSteps)
		}
		if widths.n != rep.Stats.CertifiedSteps {
			log.Fatalf("campaign %s: %d width probes for %d certified steps", wl.name, widths.n, rep.Stats.CertifiedSteps)
		}
		for name, v := range rep.Stats.InvariantViolations {
			if v != 0 {
				log.Fatalf("campaign %s: invariant %s violated %d times", wl.name, name, v)
			}
		}
		report.Campaigns = append(report.Campaigns, &ibpCampaignReport{
			Design:               wl.name,
			CertifiedSteps:       rep.Stats.CertifiedSteps,
			CertifiedRangeMisses: rep.Stats.CertifiedRangeMisses,
			CertWidthMean:        widths.mean(),
			CertWidthMax:         widths.max,
			Report:               rep,
		})
		log.Printf("%-28s %6d eps  %8.0f eps/s  certified %d steps, 0 misses, width mean %.4g max %.4g",
			wl.name, rep.Stats.Episodes, rep.Perf.EpisodesPerSec, rep.Stats.CertifiedSteps,
			widths.mean(), widths.max)
	}
	return report
}
