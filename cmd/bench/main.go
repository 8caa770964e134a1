// Command bench runs the benchmark suites below through the sharded
// campaign engine (internal/campaign), gates them and writes each as a
// machine-readable report: throughput and latency, Wilson-interval
// outcome rates and every invariant checker's violation count.
//
// Usage:
//
//	bench [-guard | -ibp | -platoon] [-quick] [-episodes N] [-workers W] [-seed S]
//	      [-out FILE] [-checkpoint DIR] [-models DIR] [-cpuprofile F] [-memprofile F]
//	bench -smoke [-guard | -platoon] [-workers W] [-seed S]
//	bench -check REPORT [-workers W] [-models DIR]
//	bench -worker ADDR [-models DIR] [-worker-id ID] [-worker-checkpoint FILE] [-worker-kill-after N]
//
// Suites (the flag is the tail of the report's generated_by):
//
//	flag      default -out         rows                                        gate                     -smoke cases (10k episodes each)
//	(none)    BENCH_campaign.json  3 settings × 2 experts, burst, worst        none: a safety audit     clean, delayed
//	-guard    BENCH_guard.json     one guarded campaign per fault preset       zero violations          panic-half, nan-half
//	-ibp      BENCH_ibp.json       4 trained-NN designs in IBP verified mode   zero certified misses    none
//	-platoon  BENCH_platoon.json   3 settings on all 3 links of a 4-vehicle    zero violations          clean, burst-nn-link
//	                               chain, burst per link
//
// Every row and smoke case is a workload of the internal/workloads
// registry, named in the report.  Every row runs its checkers in
// counting mode; -quick runs 500 episodes per row (5000 by default) and
// keeps one canonical workload per axis.  -smoke runs the suite's smoke
// cases with every checker in fail mode and no collision or
// sound-interval violation allowed: the CI gates.  -check reruns the
// workloads a committed report of any suite names, at its recorded size
// and seed, and compares every row byte for byte apart from its perf
// timings; a difference names the campaign and the field and exits
// nonzero.
// -checkpoint saves each row's completed shards in DIR (created first),
// so an interrupted run resumes them; a corrupt checkpoint file is
// discarded with a warning and its campaign restarts fresh.
// -worker joins a campaignd coordinator as a distributed-campaign worker
// (internal/dist) that runs any registered workload and whose shard
// aggregates fold byte-identically to a local run; -worker-checkpoint
// resumes a crashed worker mid-shard.
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
	"safeplan/internal/dist"
	"safeplan/internal/workloads"
)

// report is the file layout of every suite's report.
type report struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	Vehicles            int   `json:"vehicles,omitempty"` // platoon chain length
	EpisodesPerCampaign int   `json:"episodes_per_campaign"`
	BaseSeed            int64 `json:"base_seed"`
	Workers             int   `json:"workers"`

	// Speedup compares 1-worker and full-worker throughput on the first
	// row of a suite that probes it (omitted with a single worker).
	Speedup *speedup `json:"speedup,omitempty"`

	Campaigns []json.RawMessage `json:"campaigns"`
}

type speedup struct {
	Campaign        string  `json:"campaign"`
	Workers         int     `json:"workers"`
	EpisodesPerSec1 float64 `json:"episodes_per_sec_1_worker"`
	EpisodesPerSecN float64 `json:"episodes_per_sec_n_workers"`
	Factor          float64 `json:"factor"`
}

// options are the run parameters a suite's rows and runner read.
type options struct {
	quick      bool
	models     string // trained-model directory
	episodes   int
	workers    int
	seed       int64
	checkpoint string // directory; "" disables checkpointing
	probe      bool   // run the suite's speed-up probe
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		episodes   = flag.Int("episodes", 0, "episodes per campaign (0: 5000, or 500 with -quick)")
		workers    = flag.Int("workers", 0, "worker goroutines (0: one per core)")
		seed       = flag.Int64("seed", 42, "base seed (episode i runs with seed base+i)")
		out        = flag.String("out", "", "output report path (- for stdout; default: the suite's BENCH_*.json)")
		quick      = flag.Bool("quick", false, "small matrix for regression snapshots (500 episodes unless -episodes is set)")
		smoke      = flag.Bool("smoke", false, "CI safety gate: the suite's 10k-episode smoke cases, invariants in fail mode")
		guardMode  = flag.Bool("guard", false, "compute-fault matrix: one campaign per planner-fault preset under the guarded design")
		checkpoint = flag.String("checkpoint", "", "directory for per-campaign checkpoints (enables resume)")
		ibpMode    = flag.Bool("ibp", false, "certification sweep: every trained-NN design in IBP verified mode, zero certified-range misses required (BENCH_ibp.json)")
		platoon    = flag.Bool("platoon", false, "four-vehicle platoon matrix (BENCH_platoon.json); with -smoke, the platoon CI gate")
		modelDir   = flag.String("models", "models", "trained-model directory for the certify/* workloads (-ibp, -check, -worker)")
		check      = flag.String("check", "", "rerun the campaigns of this committed report and compare them byte for byte")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")

		workerAddr = flag.String("worker", "", "run as a distributed campaign worker against this campaignd address")
		workerID   = flag.String("worker-id", "", "worker name in leases and telemetry (default: host-pid)")
		workerCkpt = flag.String("worker-checkpoint", "", "mid-shard checkpoint file for crash resume (worker mode)")
		workerKill = flag.Int("worker-kill-after", 0, "crash seam for the dist-smoke gate: hard-exit the process after N episodes, leaving mid-shard state on disk (0 disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// An argument ends flag parsing: "-platoon 4 -episodes 200" would
		// silently drop every flag after the 4.
		log.Fatalf("unexpected argument %q (-platoon takes no chain length: the chain has four vehicles)", flag.Arg(0))
	}

	if *workerAddr != "" {
		runDistWorker(*workerAddr, *workerID, *workerCkpt, *modelDir, *workerKill)
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

	o := options{quick: *quick, models: *modelDir, workers: *workers, seed: *seed}
	if o.workers == 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if *check != "" {
		if err := runCheck(*check, o); err != nil {
			log.Fatal(err)
		}
		return
	}
	s, err := pickSuite(*guardMode, *ibpMode, *platoon)
	if err != nil {
		log.Fatal(err)
	}
	if *smoke {
		if err := runSmoke(s, o); err != nil {
			log.Fatal(err)
		}
		return
	}
	o.episodes, o.checkpoint, o.probe = *episodes, *checkpoint, true
	if o.episodes == 0 {
		o.episodes = 5000
		if *quick {
			o.episodes = 500
		}
	}
	path := *out
	if path == "" {
		path = s.out
	}
	if err := runReport(s, o, path); err != nil {
		log.Fatal(err)
	}
}

// pickSuite is the suite the mode flags select.
func pickSuite(guard, ibp, platoon bool) (*suite, error) {
	name := "cmd/bench"
	switch {
	case guard:
		name += " -guard"
	case ibp:
		name += " -ibp"
	case platoon:
		name += " -platoon"
	}
	return lookupSuite(name)
}

// runReport runs suite s's rows and writes the report to path (- for
// stdout).
func runReport(s *suite, o options, path string) error {
	if o.checkpoint != "" {
		if err := os.MkdirAll(o.checkpoint, 0o755); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
	}
	rep, err := s.run(s.rows(o.quick), o)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := campaign.WriteFileAtomic(path, raw); err != nil {
		return err
	}
	log.Printf("wrote %s (%d campaigns)", path, len(rep.Campaigns))
	return nil
}

// run runs the named workloads in counting mode at o's size, seed and
// workers, each under the suite's gate, logs one line per row and
// returns the report.
func (s *suite) run(names []string, o options) (*report, error) {
	rep := &report{
		GeneratedBy:         s.generatedBy,
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		Vehicles:            s.vehicles,
		EpisodesPerCampaign: o.episodes,
		BaseSeed:            o.seed,
		Workers:             o.workers,
	}
	for i, name := range names {
		wl, err := workloads.Lookup(name, o.models)
		if err != nil {
			return nil, err
		}
		spec := campaign.Spec{
			Name:            name,
			Episodes:        o.episodes,
			BaseSeed:        o.seed,
			Workers:         o.workers,
			Invariants:      wl.Invariants,
			CountViolations: true,
		}
		if o.checkpoint != "" {
			spec.CheckpointPath = filepath.Join(o.checkpoint, sanitize(name)+".json")
		}
		res, err := runCampaign(spec, wl.Episode)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", name, err)
		}
		var row any = res
		note := safeNote(res)
		if s.finish != nil {
			if row, note, err = s.finish(spec, wl.Episode, res); err != nil {
				return nil, fmt.Errorf("campaign %s: %w", name, err)
			}
		}
		log.Printf("%-28s %6d eps  %8.0f eps/s  %s", name, res.Stats.Episodes, res.Perf.EpisodesPerSec, note)
		raw, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		rep.Campaigns = append(rep.Campaigns, raw)

		if i == 0 && s.speedup && o.probe && o.workers > 1 {
			spec.CheckpointPath = "" // never resume the probe
			spec.Workers = 1
			base, err := campaign.Run(spec, wl.Episode)
			if err != nil {
				return nil, fmt.Errorf("campaign %s (1 worker): %w", name, err)
			}
			rep.Speedup = &speedup{
				Campaign:        name,
				Workers:         o.workers,
				EpisodesPerSec1: base.Perf.EpisodesPerSec,
				EpisodesPerSecN: res.Perf.EpisodesPerSec,
				Factor:          res.Perf.EpisodesPerSec / base.Perf.EpisodesPerSec,
			}
			log.Printf("%-28s speedup %.2fx at %d workers", name, rep.Speedup.Factor, o.workers)
		}
	}
	return rep, nil
}

// runSmoke runs suite s's smoke cases at smokeEpisodes each with every
// checker in fail mode: any violation, collision or sound-interval miss
// fails the gate.
func runSmoke(s *suite, o options) error {
	if s.smoke == nil {
		return fmt.Errorf("-smoke: %s has no smoke cases", s.generatedBy)
	}
	line := s.smokeLine
	if line == nil {
		line = okLine
	}
	for _, c := range s.smoke {
		wl, err := workloads.Lookup(c.name, o.models)
		if err != nil {
			return err
		}
		rep, err := campaign.Run(campaign.Spec{
			Name:       c.name,
			Episodes:   smokeEpisodes,
			BaseSeed:   o.seed,
			Workers:    o.workers,
			Invariants: wl.Invariants,
		}, wl.Episode)
		if err != nil {
			return fmt.Errorf("SMOKE FAILED (%s): %w", c.label, err)
		}
		if rep.Stats.Collided != 0 || rep.Stats.SoundViolations != 0 {
			return fmt.Errorf("SMOKE FAILED (%s): %d collisions, %d sound-interval violations (must be 0)",
				c.label, rep.Stats.Collided, rep.Stats.SoundViolations)
		}
		fmt.Println(line(c.label, rep))
	}
	return nil
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

// runDistWorker joins a campaignd coordinator as a distributed-campaign
// worker: lease shards, run episodes through the workload registry,
// submit byte-identical aggregates, exit when the campaign completes or
// the coordinator drains.  Workload resolution goes through the same
// registry the local suites use, which is the whole point: identical
// construction on both sides keeps remote episodes byte-identical to
// local ones.  models is the trained-model directory of the certify/*
// workloads.
func runDistWorker(addr, id, checkpoint, models string, killAfter int) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	log.Printf("worker %s joining coordinator at %s", id, addr)
	cfg := dist.WorkerConfig{
		ID:             id,
		Dial:           func() (dist.Conn, error) { return dist.DialTCP(addr) },
		Resolve:        workloads.Resolver(models),
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

// sanitize maps a campaign name onto a filename.
func sanitize(name string) string {
	return strings.NewReplacer("/", "-", " ", "_").Replace(name)
}
