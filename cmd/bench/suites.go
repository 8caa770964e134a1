package main

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"safeplan/internal/campaign"
	"safeplan/internal/faultinject"
	"safeplan/internal/telemetry"
)

// suite is one kind of report: the flag that selects it is the tail of
// its generated_by string.  Its rows and smoke cases are workload names
// (internal/workloads); the suite adds only its gate and row shape.
type suite struct {
	generatedBy string
	out         string // default -out
	// speedup reruns the first row on one worker to report the parallel
	// speed-up (outside -check).
	speedup bool
	// vehicles is the platoon chain length the report records.
	vehicles int
	rows     func(quick bool) []string
	// finish applies the suite's gate to a row and shapes the written
	// row; nil writes the campaign report as is, ungated.  note ends the
	// row's log line.
	finish func(spec campaign.Spec, episode campaign.EpisodeFunc, rep *campaign.Report) (out any, note string, err error)
	// smoke lists the -smoke cases, run at smokeEpisodes each with every
	// checker in fail mode; nil when the suite has no smoke gate.
	smoke []smokeCase
	// smokeLine is the case's "smoke OK" line; nil selects okLine.
	smokeLine func(label string, rep *campaign.Report) string
}

// smokeCase is one fail-mode campaign of a suite's -smoke gate: the
// workload name and the label its "smoke OK" line prints.
type smokeCase struct{ label, name string }

const smokeEpisodes = 10_000

var suites = []*suite{
	{
		generatedBy: "cmd/bench",
		out:         "BENCH_campaign.json",
		speedup:     true,
		rows:        canonicalRows,
		// The CI safety gate: the ultimate design around the aggressive
		// expert (which exercises κ_e hardest) with and without delayed
		// messages.
		smoke: []smokeCase{{"clean", "none/ultimate-aggressive"}, {"delayed", "delayed/ultimate-aggressive"}},
	},
	{
		generatedBy: "cmd/bench -guard",
		out:         "BENCH_guard.json",
		rows:        guardRows,
		finish:      guardFinish,
		// The acceptance worst cases: half of all planner calls panicking
		// or returning NaN (the nan preset's rate).
		smoke: []smokeCase{{"panic-half", "guard-smoke/panic-half"}, {"nan-half", "fault-nan/ultimate-conservative"}},
		smokeLine: func(label string, rep *campaign.Report) string {
			return fmt.Sprintf("guard smoke OK (%s): %d episodes, safe %d/%d, %d contained faults, %.0f eps/s",
				label, rep.Stats.Episodes, rep.Stats.Episodes-rep.Stats.Collided,
				rep.Stats.Episodes, rep.Stats.GuardFaults, rep.Perf.EpisodesPerSec)
		},
	},
	{
		generatedBy: "cmd/bench -ibp",
		out:         "BENCH_ibp.json",
		rows: fixed("certify/pure-nn-cons", "certify/basic-nn-cons",
			"certify/ultimate-nn-cons", "certify/ultimate-nn-aggr"),
		finish: certify,
	},
	{
		generatedBy: "cmd/bench -platoon",
		out:         "BENCH_platoon.json",
		vehicles:    4,
		rows: fixed("platoon/clean", "platoon/delayed-all-links", "platoon/lost-all-links",
			"platoon/burst-link-0", "platoon/burst-link-1", "platoon/burst-link-2"),
		finish: auditRow,
		// A clean chain and one with the burst preset on link 0, the link
		// the compound planner (vehicle 1) reads; the matrix covers the
		// burst on every other link.
		smoke: []smokeCase{{"platoon clean, N=4", "platoon/clean"}, {"platoon burst-nn-link, N=4", "platoon/burst-link-0"}},
	},
}

// fixed is a suite's rows when -quick keeps all of them.
func fixed(names ...string) func(bool) []string {
	return func(bool) []string { return names }
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
func canonicalRows(quick bool) []string {
	kinds, presets := []string{"conservative", "aggressive"}, []string{"burst", "worst"}
	if quick {
		kinds, presets = kinds[:1], presets[:1]
	}
	var names []string
	for _, setting := range []string{"none", "delayed", "lost"} {
		for _, k := range kinds {
			names = append(names, setting+"/ultimate-"+k)
		}
	}
	for _, p := range presets {
		names = append(names, "disturb-"+p+"/ultimate-conservative")
	}
	return names
}

// guardRows is the compute-fault matrix: one guarded campaign per
// planner-fault preset, gated on zero invariant violations.
func guardRows(bool) []string {
	var names []string
	for _, preset := range faultinject.PresetNames() {
		names = append(names, "fault-"+preset+"/ultimate-conservative")
	}
	return names
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

// guardFinish writes a fault-matrix row under the noViolations gate.
func guardFinish(spec campaign.Spec, _ campaign.EpisodeFunc, rep *campaign.Report) (any, string, error) {
	preset, _, _ := strings.Cut(strings.TrimPrefix(spec.Name, "fault-"), "/")
	note := fmt.Sprintf("η %.4f  faults %d  fallback rate %.4f",
		rep.Stats.Eta.Mean, rep.Stats.GuardFaults, rep.Stats.GuardFallbackStepRate)
	// CrashFreeRate is 1: campaign.Run fails on any uncontained crash.
	return &guardRow{Preset: preset, MeanEta: rep.Stats.Eta.Mean, CrashFreeRate: 1, Report: rep}, note, noViolations(rep)
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
