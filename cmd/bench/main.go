// Command bench runs the canonical Monte-Carlo benchmark campaigns through
// the sharded campaign engine (internal/campaign) and writes a machine-
// readable report with throughput, latency percentiles, and Wilson-interval
// outcome rates.
//
// Usage:
//
//	bench [-episodes 5000] [-workers 0] [-seed 42] [-out BENCH_campaign.json]
//	      [-quick] [-smoke] [-guard] [-platoon N] [-checkpoint DIR]
//	bench -check BENCH_seed.json
//
// The default matrix covers the paper's three communication settings (none,
// delayed, lost) for both expert planners under the ultimate compound
// design, plus the bursty Gilbert–Elliott and worst-case adversarial
// disturbance presets.  Every campaign runs with the full invariant-checker
// set in counting mode, so the report doubles as a safety audit: the
// invariant_violations counters must be zero for the guaranteed designs.
//
// -quick shrinks the matrix for fast regression snapshots (BENCH_seed.json);
// -smoke runs a single 10k-episode campaign with the checkers in fail mode
// and exits nonzero on the first violation — the CI safety gate.
// -guard switches to the compute-fault matrix: one campaign per planner-
// fault preset under the guarded ultimate design, reporting mean η and the
// crash-free rate per preset (BENCH_guard.json).  -guard -smoke is the
// guard's own CI gate: the acceptance worst cases (PanicP and NaNOutput at
// p = 0.5) over 10k episodes each with the containment checkers in fail
// mode.
// -platoon N switches to the N-vehicle chained-link platoon matrix
// (internal/platoon): every canonical communication setting applied
// uniformly to all V2V links, plus the adversarial burst preset rotated
// over each individual link, with the chain's checkers — pairwise
// no-collision, per-link soundness, true-state slack, string stability —
// in counting mode (BENCH_platoon.json).  -platoon N -smoke is the
// platoon's own CI gate: a clean chain and a burst-on-the-middle-link
// chain over 10k episodes each with the checkers in fail mode.
// -ibp runs the offline certification sweep: every trained-NN design on
// the clean canonical scenario in IBP verified mode (internal/nn/ibp),
// each executed κ_n command cross-checked against the certified output
// range.  Any certified-range miss fails the process; the report is
// BENCH_ibp.json.  -models selects the trained-model directory.
// -worker joins a campaignd coordinator as a distributed-campaign worker
// (internal/dist): it leases shards, runs their episodes through the
// workload registry, and submits aggregates that fold byte-identically
// to a local run.  -worker-checkpoint gives the worker a mid-shard
// resume file so a crashed worker restarts at the exact episode it left.
// -check FILE reruns the campaigns a committed report records (the
// canonical matrix of BENCH_seed.json, the certification sweep of
// BENCH_ibp.json or the fault matrix of BENCH_guard_quick.json), at its
// recorded sizes and seeds, and compares every
// campaign's stats object with the file's byte for byte; timings and host
// fields are ignored.  Any difference names the campaign and the field
// and exits nonzero.
// -checkpoint enables per-campaign checkpoint/resume in the given
// directory, created (with its parents) before any campaign runs: an
// interrupted bench rerun resumes completed shards instead of redoing
// them.  A corrupt checkpoint file is discarded with a warning
// and the campaign restarts fresh — resumption is an optimization, the
// aggregates are recomputable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/dist"
	"safeplan/internal/experiments"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
	"safeplan/internal/workloads"
)

// benchReport is the file layout of BENCH_campaign.json / BENCH_seed.json.
type benchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	EpisodesPerCampaign int   `json:"episodes_per_campaign"`
	BaseSeed            int64 `json:"base_seed"`
	Workers             int   `json:"workers"`

	// Speedup compares 1-worker and full-worker throughput on the first
	// campaign of the matrix (omitted when running with a single worker).
	Speedup *speedup `json:"speedup,omitempty"`

	Campaigns []*campaign.Report `json:"campaigns"`
}

type speedup struct {
	Campaign        string  `json:"campaign"`
	Workers         int     `json:"workers"`
	EpisodesPerSec1 float64 `json:"episodes_per_sec_1_worker"`
	EpisodesPerSecN float64 `json:"episodes_per_sec_n_workers"`
	Factor          float64 `json:"factor"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		episodes   = flag.Int("episodes", 5000, "episodes per campaign")
		workers    = flag.Int("workers", 0, "worker goroutines (0: one per core)")
		seed       = flag.Int64("seed", 42, "base seed (episode i runs with seed base+i)")
		out        = flag.String("out", "BENCH_campaign.json", "output report path (- for stdout)")
		quick      = flag.Bool("quick", false, "small matrix for regression snapshots (500 episodes unless -episodes is set)")
		smoke      = flag.Bool("smoke", false, "CI safety gate: one 10k-episode campaign, invariants in fail mode")
		guardMode  = flag.Bool("guard", false, "compute-fault matrix: one campaign per planner-fault preset under the guarded design")
		checkpoint = flag.String("checkpoint", "", "directory for per-campaign checkpoints (enables resume)")
		ibpMode    = flag.Bool("ibp", false, "certification sweep: every trained-NN design in IBP verified mode, zero certified-range misses required (BENCH_ibp.json)")
		platoonN   = flag.Int("platoon", 0, "chain length for the N-vehicle platoon matrix (BENCH_platoon.json); with -smoke, the platoon CI gate")
		modelDir   = flag.String("models", "models", "trained-model directory for -ibp")
		check      = flag.String("check", "", "rerun the campaigns of this committed report and compare their stats byte for byte")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")

		workerAddr = flag.String("worker", "", "run as a distributed campaign worker against this campaignd address")
		workerID   = flag.String("worker-id", "", "worker name in leases and telemetry (default: host-pid)")
		workerCkpt = flag.String("worker-checkpoint", "", "mid-shard checkpoint file for crash resume (worker mode)")
		workerKill = flag.Int("worker-kill-after", 0, "crash seam for the dist-smoke gate: hard-exit the process after N episodes, leaving mid-shard state on disk (0 disables)")
	)
	flag.Parse()

	if *workerAddr != "" {
		runDistWorker(*workerAddr, *workerID, *workerCkpt, *workerKill)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *check != "" {
		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if err := runCheck(*check, w, *modelDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *platoonN != 0 && *platoonN < 2 {
		log.Fatalf("-platoon %d: a chain needs at least two vehicles (head + ego)", *platoonN)
	}

	if *smoke {
		switch {
		case *guardMode:
			runGuardSmoke(*workers, *seed)
		case *platoonN >= 2:
			runPlatoonSmoke(*platoonN, *workers, *seed)
		default:
			runSmoke(*workers, *seed)
		}
		return
	}

	if err := makeCheckpointDir(*checkpoint); err != nil {
		log.Fatal(err)
	}
	n := *episodes
	if *quick && !flagPassed("episodes") {
		n = 500
	}
	w := *workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}

	if *guardMode {
		o := *out
		if !flagPassed("out") {
			o = "BENCH_guard.json"
		}
		runGuardMatrix(n, w, *seed, o, *checkpoint)
		return
	}

	if *ibpMode {
		o := *out
		if !flagPassed("out") {
			o = "BENCH_ibp.json"
		}
		runIBPSweep(n, w, *seed, o, *modelDir)
		return
	}

	if *platoonN >= 2 {
		o := *out
		if !flagPassed("out") {
			o = "BENCH_platoon.json"
		}
		runPlatoonMatrix(*platoonN, n, w, *seed, o)
		return
	}

	report := benchReport{
		GeneratedBy:         "cmd/bench",
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		EpisodesPerCampaign: n,
		BaseSeed:            *seed,
		Workers:             w,
	}

	matrix := workloads.CanonicalMatrix(*quick)
	for i, wl := range matrix {
		spec := matrixSpec(wl, n, w, *seed)
		if *checkpoint != "" {
			spec.CheckpointPath = filepath.Join(*checkpoint, sanitize(wl.Name)+".json")
		}
		rep, err := runCampaign(spec, wl.Episode())
		if err != nil {
			log.Fatalf("campaign %s: %v", wl.Name, err)
		}
		log.Printf("%-28s %6d eps  %8.0f eps/s  safe %.4f [%.4f, %.4f]",
			wl.Name, rep.Stats.Episodes, rep.Perf.EpisodesPerSec,
			rep.Stats.SafeRate.Rate, rep.Stats.SafeRate.Lo, rep.Stats.SafeRate.Hi)
		report.Campaigns = append(report.Campaigns, rep)

		// Parallel-efficiency probe: rerun the first campaign single-worker.
		if i == 0 && w > 1 {
			spec.CheckpointPath = "" // never resume the probe
			spec.Workers = 1
			base, err := campaign.Run(spec, wl.Episode())
			if err != nil {
				log.Fatalf("campaign %s (1 worker): %v", wl.Name, err)
			}
			report.Speedup = &speedup{
				Campaign:        wl.Name,
				Workers:         w,
				EpisodesPerSec1: base.Perf.EpisodesPerSec,
				EpisodesPerSecN: rep.Perf.EpisodesPerSec,
				Factor:          rep.Perf.EpisodesPerSec / base.Perf.EpisodesPerSec,
			}
			log.Printf("%-28s speedup %.2fx at %d workers", wl.Name, report.Speedup.Factor, w)
		}
	}

	raw, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := campaign.WriteFileAtomic(*out, raw); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d campaigns)", *out, len(report.Campaigns))
}

// matrixSpec is the campaign of one canonical-matrix workload: every
// checker of its invariant set in counting mode.
func matrixSpec(wl workloads.Workload, n, w int, seed int64) campaign.Spec {
	return campaign.Spec{
		Name:            wl.Name,
		Episodes:        n,
		BaseSeed:        seed,
		Workers:         w,
		Invariants:      wl.Invariants(),
		CountViolations: true,
	}
}

// runCampaign executes a spec, degrading gracefully when its checkpoint
// file is corrupt (truncated, bit-flipped, version-skewed): the file is
// discarded with a warning and the campaign restarts fresh.  A
// *fingerprint* mismatch still fails — that checkpoint belongs to a
// different campaign and discarding it would hide the caller's mistake.
func runCampaign(spec campaign.Spec, episode campaign.EpisodeFunc) (*campaign.Report, error) {
	rep, err := campaign.Run(spec, episode)
	if err != nil && spec.CheckpointPath != "" && errors.Is(err, campaign.ErrCorruptCheckpoint) {
		log.Printf("WARNING: %v — discarding and restarting fresh", err)
		if rmErr := os.Remove(spec.CheckpointPath); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, rmErr
		}
		rep, err = campaign.Run(spec, episode)
	}
	return rep, err
}

// runSmoke is the CI safety gate: a clean (no-disturbance) and a disturbed
// (delayed) 10k-episode campaign with every checker in fail mode.  Any
// violation makes the campaign — and the process — fail, and the
// sound_violations counter must come back zero from both: the soundness
// contract holds with and without communication disturbance.
func runSmoke(workers int, seed int64) {
	settings := experiments.StandardSettings()
	for _, s := range []struct {
		label string
		idx   int
	}{
		{"clean", 0},   // no disturbance
		{"delayed", 1}, // messages delayed
	} {
		cfg := experiments.SettingConfig(settings[s.idx])
		cfg.InfoFilter = true
		// The aggressive planner exercises κ_e heavily, which is what the
		// emergency checkers are for.
		agent := core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
		rep, err := campaign.Run(campaign.Spec{
			Name:       "smoke/" + s.label + "/ultimate-aggressive",
			Episodes:   10_000,
			BaseSeed:   seed,
			Workers:    workers,
			Invariants: workloads.InvariantSet(cfg),
		}, campaign.LeftTurn(cfg, agent))
		if err != nil {
			log.Fatalf("SMOKE FAILED (%s): %v", s.label, err)
		}
		if rep.Stats.SoundViolations != 0 {
			log.Fatalf("SMOKE FAILED (%s): %d sound-interval violations (must be 0)",
				s.label, rep.Stats.SoundViolations)
		}
		fmt.Printf("smoke OK (%s): %d episodes, safe %d/%d, %.0f eps/s, emergency episodes %d, sound violations 0\n",
			s.label, rep.Stats.Episodes, rep.Stats.Episodes-rep.Stats.Collided, rep.Stats.Episodes,
			rep.Perf.EpisodesPerSec, rep.Stats.EmergencyEpisodes)
	}
}

// guardBenchReport is the file layout of BENCH_guard.json: one guarded
// campaign per planner-fault preset.
type guardBenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	EpisodesPerCampaign int   `json:"episodes_per_campaign"`
	BaseSeed            int64 `json:"base_seed"`
	Workers             int   `json:"workers"`

	Campaigns []*guardCampaignReport `json:"campaigns"`
}

// guardCampaignReport is one preset's row of the fault matrix.
type guardCampaignReport struct {
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

// faultInvariantSet is the fail-mode checker set under planner faults.
// MonitorConsistency is absent by design: a guard-forced κ_e step
// diverges from the monitor's verdict — that divergence is the
// containment the remaining checkers assert.
func faultInvariantSet(cfg sim.Config) []sim.Invariant {
	return []sim.Invariant{
		sim.NoCollision{},
		sim.SoundEstimate{},
		sim.EmergencyOneStep{Cfg: cfg.Scenario},
		sim.NewGuardConsistency(cfg.Scenario),
	}
}

// runGuardMatrix runs the fault matrix (guardMatrix) and writes it to out
// (BENCH_guard.json by default).
func runGuardMatrix(n, w int, seed int64, out, checkpoint string) {
	report := guardMatrix(n, w, seed, checkpoint)
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
	log.Printf("wrote %s (%d fault campaigns)", out, len(report.Campaigns))
}

// guardMatrix runs one guarded campaign per planner-fault preset.  The
// containment invariants run in counting mode so the report doubles as a
// fault-tolerance audit: every invariant_violations counter must be zero
// and every crash_free_rate 1.
func guardMatrix(n, w int, seed int64, checkpoint string) *guardBenchReport {
	report := &guardBenchReport{
		GeneratedBy:         "cmd/bench -guard",
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		EpisodesPerCampaign: n,
		BaseSeed:            seed,
		Workers:             w,
	}
	for _, preset := range faultinject.PresetNames() {
		m, err := faultinject.Preset(preset)
		if err != nil {
			log.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.InfoFilter = true
		cfg.PlannerFault = m
		gc := guard.DefaultConfig(cfg.Scenario.Ego)
		cfg.Guard = &gc
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		spec := campaign.Spec{
			Name:            "fault-" + preset + "/ultimate-conservative",
			Episodes:        n,
			BaseSeed:        seed,
			Workers:         w,
			Invariants:      faultInvariantSet(cfg),
			CountViolations: true,
		}
		if checkpoint != "" {
			spec.CheckpointPath = filepath.Join(checkpoint, sanitize(spec.Name)+".json")
		}
		rep, err := runCampaign(spec, campaign.LeftTurn(cfg, agent))
		if err != nil {
			log.Fatalf("campaign %s: %v", spec.Name, err)
		}
		for name, v := range rep.Stats.InvariantViolations {
			if v != 0 {
				log.Fatalf("campaign %s: invariant %s violated %d times", spec.Name, name, v)
			}
		}
		row := &guardCampaignReport{
			Preset:        preset,
			MeanEta:       rep.Stats.Eta.Mean,
			CrashFreeRate: 1, // campaign.Run fails on any uncontained crash
			Report:        rep,
		}
		report.Campaigns = append(report.Campaigns, row)
		log.Printf("%-28s %6d eps  %8.0f eps/s  η %.4f  faults %d  fallback rate %.4f",
			spec.Name, rep.Stats.Episodes, rep.Perf.EpisodesPerSec,
			row.MeanEta, rep.Stats.GuardFaults, rep.Stats.GuardFallbackStepRate)
	}
	return report
}

// runGuardSmoke is the guard's CI gate: the acceptance worst cases —
// half of all planner calls panicking, half returning NaN — over 10k
// episodes each, containment checkers in fail mode.  Any escaped panic,
// collision, burned κ_e slack, or malformed guard intervention fails the
// process.
func runGuardSmoke(workers int, seed int64) {
	cases := []struct {
		name  string
		model faultinject.Model
	}{
		{"panic-half", faultinject.PanicP{P: 0.5}},
		{"nan-half", faultinject.NaNOutput{P: 0.5}},
	}
	for _, c := range cases {
		cfg := sim.DefaultConfig()
		cfg.InfoFilter = true
		cfg.PlannerFault = c.model
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		rep, err := campaign.Run(campaign.Spec{
			Name:       "guard-smoke/" + c.name,
			Episodes:   10_000,
			BaseSeed:   seed,
			Workers:    workers,
			Invariants: faultInvariantSet(cfg),
		}, campaign.LeftTurn(cfg, agent))
		if err != nil {
			log.Fatalf("GUARD SMOKE FAILED (%s): %v", c.name, err)
		}
		fmt.Printf("guard smoke OK (%s): %d episodes, safe %d/%d, %d contained faults, %.0f eps/s\n",
			c.name, rep.Stats.Episodes, rep.Stats.Episodes-rep.Stats.Collided,
			rep.Stats.Episodes, rep.Stats.GuardFaults, rep.Perf.EpisodesPerSec)
	}
}

// runDistWorker joins a campaignd coordinator as a distributed-campaign
// worker: lease shards, run episodes through the workload registry,
// submit byte-identical aggregates, exit when the campaign completes or
// the coordinator drains.  Workload resolution goes through the same
// registry the local matrix uses, which is the whole point: identical
// construction on both sides keeps remote episodes byte-identical to
// local ones.
func runDistWorker(addr, id, checkpoint string, killAfter int) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	log.Printf("worker %s joining coordinator at %s", id, addr)
	cfg := dist.WorkerConfig{
		ID:   id,
		Dial: func() (dist.Conn, error) { return dist.DialTCP(addr) },
		Resolve: func(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
			wl, err := workloads.Lookup(name)
			if err != nil {
				return nil, nil, err
			}
			return wl.Episode(), wl.Invariants(), nil
		},
		CheckpointPath: checkpoint,
	}
	if killAfter > 0 {
		// os.Exit skips deferred cleanup and the pending lease release —
		// deliberately: the gate wants a real abrupt death, with whatever
		// mid-shard checkpoint happens to be on disk and a dangling lease
		// the coordinator must expire.
		ran := 0
		cfg.AfterEpisode = func(shard, next int) error {
			if ran++; ran >= killAfter {
				log.Printf("worker %s: hard-exiting after %d episodes (shard %d) — dist-smoke crash seam", id, ran, shard)
				os.Exit(137)
			}
			return nil
		}
	}
	sum, err := dist.RunWorker(cfg)
	log.Printf("worker %s: %d shards completed, %d episodes run, %d transport retries, %d leases lost, resumed=%v",
		id, sum.ShardsCompleted, sum.EpisodesRun, sum.Retries, sum.LeasesLost, sum.Resumed)
	if err != nil {
		log.Fatalf("worker %s: %v", id, err)
	}
}

// makeCheckpointDir creates the -checkpoint directory and its parents
// before any campaign runs, so the first shard save finds it; an empty
// dir (no checkpointing) is left alone.
func makeCheckpointDir(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-checkpoint: %w", err)
	}
	return nil
}

// sanitize maps a campaign name onto a filename.
func sanitize(name string) string {
	return strings.NewReplacer("/", "-", " ", "_").Replace(name)
}

// flagPassed reports whether the named flag was set explicitly.
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
