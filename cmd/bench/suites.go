package main

import (
	"fmt"
	"math"
	"sync"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/experiments"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
	"safeplan/internal/workloads"
)

// suite is one kind of report: the flag that selects it is the tail of
// its generated_by string.
type suite struct {
	generatedBy string
	out         string // default -out
	// speedup reruns the first row on one worker to report the parallel
	// speed-up (outside -check).
	speedup bool
	rows    func(o options) ([]row, error)
	// smoke lists the -smoke cases, run at smokeEpisodes each with every
	// checker in fail mode; nil when the suite has no smoke gate.
	smoke func(o options) ([]smokeCase, error)
	// smokeLine is the case's "smoke OK" line; nil selects okLine.
	smokeLine func(label string, rep *campaign.Report) string
}

// row is one campaign of a suite.  The runner fills in the size, seed,
// workers and checkpoint of its campaign.Spec.
type row struct {
	name       string
	invariants []sim.Invariant
	episode    campaign.EpisodeFunc
	// finish applies the row's gate and shapes the written row; nil writes
	// the campaign report as is, ungated.  note ends the row's log line.
	finish func(spec campaign.Spec, episode campaign.EpisodeFunc, rep *campaign.Report) (out any, note string, err error)
}

// smokeCase is one fail-mode campaign of a suite's -smoke gate.
type smokeCase struct {
	label string
	row
}

const smokeEpisodes = 10_000

var suites = []*suite{
	{
		generatedBy: "cmd/bench",
		out:         "BENCH_campaign.json",
		speedup:     true,
		rows:        canonicalRows,
		smoke:       canonicalSmoke,
	},
	{
		generatedBy: "cmd/bench -guard",
		out:         "BENCH_guard.json",
		rows:        guardRows,
		smoke:       guardSmoke,
		smokeLine: func(label string, rep *campaign.Report) string {
			return fmt.Sprintf("guard smoke OK (%s): %d episodes, safe %d/%d, %d contained faults, %.0f eps/s",
				label, rep.Stats.Episodes, rep.Stats.Episodes-rep.Stats.Collided,
				rep.Stats.Episodes, rep.Stats.GuardFaults, rep.Perf.EpisodesPerSec)
		},
	},
	{
		generatedBy: "cmd/bench -ibp",
		out:         "BENCH_ibp.json",
		rows:        ibpRows,
	},
	{
		generatedBy: "cmd/bench -platoon",
		out:         "BENCH_platoon.json",
		rows:        platoonRows,
		smoke:       platoonSmoke,
	},
}

// lookupSuite returns the suite whose reports carry generatedBy.
func lookupSuite(generatedBy string) (*suite, error) {
	for _, s := range suites {
		if s.generatedBy == generatedBy {
			return s, nil
		}
	}
	return nil, fmt.Errorf("no suite generates %q reports", generatedBy)
}

// okLine is the default "smoke OK" line.
func okLine(label string, rep *campaign.Report) string {
	return fmt.Sprintf("smoke OK (%s): %d episodes, safe %d/%d, %.0f eps/s, emergency episodes %d, sound violations 0",
		label, rep.Stats.Episodes, rep.Stats.Episodes-rep.Stats.Collided, rep.Stats.Episodes,
		rep.Perf.EpisodesPerSec, rep.Stats.EmergencyEpisodes)
}

// noViolations is the gate of the suites whose report doubles as a
// safety audit: every counted invariant violation fails the run.
func noViolations(rep *campaign.Report) error {
	for name, v := range rep.Stats.InvariantViolations {
		if v != 0 {
			return fmt.Errorf("invariant %s violated %d times", name, v)
		}
	}
	return nil
}

// auditRow writes the campaign report under the noViolations gate.
func auditRow(_ campaign.Spec, _ campaign.EpisodeFunc, rep *campaign.Report) (any, string, error) {
	return rep, safeNote(rep), noViolations(rep)
}

func safeNote(rep *campaign.Report) string {
	return fmt.Sprintf("safe %.4f [%.4f, %.4f]", rep.Stats.SafeRate.Rate, rep.Stats.SafeRate.Lo, rep.Stats.SafeRate.Hi)
}

// canonicalRows is the paper's three communication settings for both
// expert planners under the ultimate design, plus the burst and worst
// disturbance presets (one workload per axis with -quick), every checker
// counting but ungated: the report is the designs' safety audit.
func canonicalRows(o options) ([]row, error) {
	var rows []row
	for _, wl := range workloads.CanonicalMatrix(o.quick) {
		rows = append(rows, row{name: wl.Name, invariants: wl.Invariants(), episode: wl.Episode()})
	}
	return rows, nil
}

// canonicalSmoke is the CI safety gate: the ultimate design around the
// aggressive expert (which exercises κ_e hardest) with and without
// delayed messages.
func canonicalSmoke(options) ([]smokeCase, error) {
	settings := experiments.StandardSettings()
	var cases []smokeCase
	for i, label := range []string{"clean", "delayed"} {
		cfg := experiments.SettingConfig(settings[i])
		cfg.InfoFilter = true
		agent := core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
		cases = append(cases, smokeCase{label, row{
			name:       "smoke/" + label + "/ultimate-aggressive",
			invariants: workloads.InvariantSet(cfg),
			episode:    campaign.LeftTurn(cfg, agent),
		}})
	}
	return cases, nil
}

// faultRow is a left-turn campaign of the guarded ultimate conservative
// design under planner faults m.  MonitorConsistency is absent from its
// checkers by design: a guard-forced κ_e step diverges from the
// monitor's verdict — that divergence is the containment the remaining
// checkers assert.
func faultRow(name string, m faultinject.Model, withGuard bool) row {
	cfg := sim.DefaultConfig()
	cfg.InfoFilter = true
	cfg.PlannerFault = m
	if withGuard {
		gc := guard.DefaultConfig(cfg.Scenario.Ego)
		cfg.Guard = &gc
	}
	return row{
		name: name,
		invariants: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			sim.EmergencyOneStep{Cfg: cfg.Scenario},
			sim.NewGuardConsistency(cfg.Scenario),
		},
		episode: campaign.LeftTurn(cfg, core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))),
	}
}

// guardRow is one preset's row of the fault matrix.
type guardRow struct {
	Preset string `json:"preset"`
	// MeanEta is the efficiency score under contained faults — the cost
	// of degradation, to compare against the preset "none" baseline.
	MeanEta float64 `json:"mean_eta"`
	// CrashFreeRate is the fraction of episodes that completed without an
	// uncontained planner crash.  The guard recovers every injected
	// panic, so this must be 1 for every preset; an episode that
	// crashed would abort its campaign and the whole bench run.
	CrashFreeRate float64 `json:"crash_free_rate"`

	Report *campaign.Report `json:"report"`
}

// guardRows is the compute-fault matrix: one guarded campaign per
// planner-fault preset, gated on zero invariant violations.
func guardRows(options) ([]row, error) {
	var rows []row
	for _, preset := range faultinject.PresetNames() {
		m, err := faultinject.Preset(preset)
		if err != nil {
			return nil, err
		}
		r := faultRow("fault-"+preset+"/ultimate-conservative", m, true)
		r.finish = func(_ campaign.Spec, _ campaign.EpisodeFunc, rep *campaign.Report) (any, string, error) {
			note := fmt.Sprintf("η %.4f  faults %d  fallback rate %.4f",
				rep.Stats.Eta.Mean, rep.Stats.GuardFaults, rep.Stats.GuardFallbackStepRate)
			// CrashFreeRate is 1: campaign.Run fails on any uncontained crash.
			return &guardRow{Preset: preset, MeanEta: rep.Stats.Eta.Mean, CrashFreeRate: 1, Report: rep}, note, noViolations(rep)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// guardSmoke is the guard's CI gate: the acceptance worst cases, half of
// all planner calls panicking or returning NaN.
func guardSmoke(options) ([]smokeCase, error) {
	return []smokeCase{
		{"panic-half", faultRow("guard-smoke/panic-half", faultinject.PanicP{P: 0.5}, false)},
		{"nan-half", faultRow("guard-smoke/nan-half", faultinject.NaNOutput{P: 0.5}, false)},
	}, nil
}

// ibpRow is one design's row of the certification sweep.
type ibpRow struct {
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

// certWidths aggregates telemetry.StepProbe.CertWidth over the certified
// steps of a campaign.  The stepper reports a zero width on the steps it
// did not certify; in this sweep (no guard) those are exactly the
// emergency steps, so the non-emergency probes are the certified ones —
// certify checks their count against Stats.CertifiedSteps.  The sum is
// kept in fixed point (widthQuantum) so that the mean does not depend on
// the order in which the campaign workers report.  A collector costs
// every step two clock reads and a shared lock, so certify attaches it
// only to a second, untimed run of each campaign.
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

// ibpRows is the offline certification sweep: every trained-NN design on
// the clean canonical scenario in IBP verified mode, each executed κ_n
// command cross-checked against the certified output range.
func ibpRows(o options) ([]row, error) {
	sc := sim.DefaultConfig().Scenario
	pl, err := experiments.LoadPlanners(o.models, sc)
	if err != nil {
		return nil, fmt.Errorf("load planners from %s: %w", o.models, err)
	}
	cons := pl.Cons.(*planner.NNPlanner)
	aggr := pl.Aggr.(*planner.NNPlanner)
	consProp, err := ibp.New(cons.Net, cons.Norm)
	if err != nil {
		return nil, fmt.Errorf("propagator (cons): %w", err)
	}
	aggrProp, err := ibp.New(aggr.Net, aggr.Norm)
	if err != nil {
		return nil, fmt.Errorf("propagator (aggr): %w", err)
	}
	mk := func(name string, prop *ibp.Propagator, agent core.Agent) row {
		cfg := sim.DefaultConfig()
		cfg.InfoFilter = true
		cfg.Certify = &sim.CertifyConfig{Prop: prop}
		// NoCollision stays out of the set: the pure NN baseline has no
		// safety guarantee by design, and this sweep audits certification,
		// not safety.  SoundEstimate still runs — certification rests on it.
		return row{name: name, invariants: []sim.Invariant{sim.SoundEstimate{}},
			episode: campaign.LeftTurn(cfg, agent), finish: certify}
	}
	return []row{
		mk("certify/pure-nn-cons", consProp, &core.PureNN{Cfg: sc, Planner: cons}),
		mk("certify/basic-nn-cons", consProp, core.NewBasic(sc, cons)),
		mk("certify/ultimate-nn-cons", consProp, core.NewUltimate(sc, cons)),
		mk("certify/ultimate-nn-aggr", aggrProp, core.NewUltimate(sc, aggr)),
	}, nil
}

// certify is a certification row's gate: it reruns the campaign's
// episodes with a certWidths collector (so the timed run carries no
// telemetry), and fails unless some step was certified, no certified
// range was missed, every certified step was probed and no invariant was
// violated.
func certify(spec campaign.Spec, episode campaign.EpisodeFunc, rep *campaign.Report) (any, string, error) {
	widths := &certWidths{}
	spec.Collector = widths
	// A resumed shard runs no episode and reports no width.
	spec.CheckpointPath = ""
	if _, err := campaign.Run(spec, episode); err != nil {
		return nil, "", fmt.Errorf("widths: %w", err)
	}
	st := rep.Stats
	switch {
	case st.CertifiedSteps == 0:
		return nil, "", fmt.Errorf("no step was certified — verified mode never armed")
	case st.CertifiedRangeMisses != 0:
		return nil, "", fmt.Errorf("%d certified-range misses over %d certified steps (must be 0)", st.CertifiedRangeMisses, st.CertifiedSteps)
	case widths.n != st.CertifiedSteps:
		return nil, "", fmt.Errorf("%d width probes for %d certified steps", widths.n, st.CertifiedSteps)
	}
	out := &ibpRow{
		Design:               spec.Name,
		CertifiedSteps:       st.CertifiedSteps,
		CertifiedRangeMisses: st.CertifiedRangeMisses,
		CertWidthMean:        widths.mean(),
		CertWidthMax:         widths.max,
		Report:               rep,
	}
	note := fmt.Sprintf("certified %d steps, 0 misses, width mean %.4g max %.4g", st.CertifiedSteps, out.CertWidthMean, out.CertWidthMax)
	return out, note, noViolations(rep)
}

// platoonRow is a campaign of the N-vehicle chain cfg: the ultimate
// compound design around the aggressive expert, built against the
// effective per-link scenario so its monitoring matches the engine's,
// with the chain's checkers — pairwise no-collision, per-link sound
// estimates, the true-state stopping-distance slack and the
// string-stability bound on consecutive-link peak gap errors.
func platoonRow(name string, cfg platoon.SimConfig) (row, error) {
	if err := cfg.Validate(); err != nil {
		return row{}, fmt.Errorf("campaign %s: %w", name, err)
	}
	sc := cfg.LinkScenario()
	return row{
		name: name,
		invariants: []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: sc},
			platoon.StringStability{},
		},
		episode: campaign.Platoon(cfg, carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))),
	}, nil
}

// platoonConfig is a chain of o.vehicles vehicles, with the burst
// disturbance preset on link burstLink alone (none when negative).
func platoonConfig(o options, burstLink int) (platoon.SimConfig, error) {
	cfg := platoon.DefaultSimConfig()
	cfg.Vehicles = o.vehicles
	cfg.InfoFilter = true
	if burstLink < 0 {
		return cfg, nil
	}
	bm, err := disturb.Preset("burst")
	if err != nil {
		return cfg, err
	}
	cfg.LinkComms = make([]comms.Config, o.vehicles-1)
	for l := range cfg.LinkComms {
		cfg.LinkComms[l] = comms.NoDisturbance()
	}
	cfg.LinkComms[burstLink] = comms.Disturbed(bm)
	return cfg, nil
}

// platoonRows is the chained-link matrix: every canonical communication
// setting applied uniformly to all V2V links, plus the burst preset
// rotated over each individual link, gated on zero invariant violations.
func platoonRows(o options) ([]row, error) {
	names := []string{"platoon/clean", "platoon/delayed-all-links", "platoon/lost-all-links"}
	for link := 0; link < o.vehicles-1; link++ {
		names = append(names, fmt.Sprintf("platoon/burst-link-%d", link))
	}
	var rows []row
	for i, name := range names {
		cfg, err := platoonConfig(o, i-3)
		if err != nil {
			return nil, err
		}
		switch i {
		case 1:
			cfg.Comms = comms.Delayed(0.25, 0.5)
		case 2:
			cfg.Comms = comms.Lost()
		}
		r, err := platoonRow(name, cfg)
		if err != nil {
			return nil, err
		}
		r.finish = auditRow
		rows = append(rows, r)
	}
	return rows, nil
}

// platoonSmoke is the platoon's CI gate: a clean chain and one with the
// burst preset on link 0, the link the compound planner (vehicle 1)
// reads; the -platoon matrix covers the burst on every other link.
func platoonSmoke(o options) ([]smokeCase, error) {
	var cases []smokeCase
	for _, label := range []string{"clean", "burst-nn-link"} {
		burstLink := -1
		if label != "clean" {
			burstLink = 0
		}
		cfg, err := platoonConfig(o, burstLink)
		if err != nil {
			return nil, err
		}
		r, err := platoonRow("platoon-smoke/"+label, cfg)
		if err != nil {
			return nil, err
		}
		cases = append(cases, smokeCase{fmt.Sprintf("platoon %s, N=%d", label, o.vehicles), r})
	}
	return cases, nil
}
