// Command campaignd is the distributed-campaign coordinator daemon: it
// owns one campaign.Spec's fixed shard plan and hands shards to bench
// -worker processes under time-bounded leases over a line-delimited JSON
// TCP protocol (internal/dist).  Results fold with the ordered merge, so
// the final statistics are byte-identical to a single-process `bench`
// run of the same workload — at any worker count, through worker
// crashes, lost messages, and restarts.
//
// Usage:
//
//	campaignd -workload none/ultimate-conservative -episodes 5000 -seed 42 \
//	          [-addr :7450] [-http :7451] [-checkpoint dist.ckpt.json] \
//	          [-lease-ttl 10s] [-out DIST_campaign.json]
//	campaignd -list
//
// -workload takes any name of the internal/workloads registry (-list
// prints them): a cmd/bench suite row or smoke case, or a design cell of
// one of the paper's studies.  The certify/* workloads load the trained
// models from ./models, the directory cmd/bench reads by default.
//
// Workers join with:
//
//	bench -worker 127.0.0.1:7450 [-worker-checkpoint worker1.ckpt.json]
//
// On SIGTERM/SIGINT the daemon drains: no new leases are granted,
// in-flight shard results are still accepted, and once the last lease
// resolves it exits 3 with the checkpoint on disk — a later campaignd
// (or single-process bench resume) picks up exactly where it stopped.
// On completion it writes the final report (stats + fault-tolerance
// counters) atomically to -out and exits 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safeplan/internal/campaign"
	"safeplan/internal/dist"
	"safeplan/internal/workloads"
)

// distReport is the file layout of the -out report: the campaign
// descriptor, the byte-identical folded statistics, and the coordinator's
// fault-tolerance telemetry (observability only — no counter feeds the
// fold).
type distReport struct {
	GeneratedBy string            `json:"generated_by"`
	Campaign    dist.CampaignInfo `json:"campaign"`
	Stats       *campaign.Stats   `json:"stats,omitempty"`
	Counters    dist.Counters     `json:"counters"`
	Wall        float64           `json:"wall_seconds"`
	Workload    string            `json:"workload"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignd: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7450", "worker-protocol TCP listen address")
		httpAddr = flag.String("http", "", "HTTP listen address for /metrics and /healthz (empty disables)")
		workload = flag.String("workload", "", "registered workload name: a cmd/bench row or smoke case, or a study cell (see -list)")
		episodes = flag.Int("episodes", 5000, "episodes in the campaign")
		seed     = flag.Int64("seed", 42, "base seed (episode i runs with seed base+i)")
		shards   = flag.Int("shards", 0, "shard count (0: the engine's fixed default)")
		ckpt     = flag.String("checkpoint", "", "coordinator checkpoint file (campaign format; enables resume and drain handoff)")
		ckEvery  = flag.Int("checkpoint-every", 0, "accepted shards per checkpoint write (0: every shard)")
		leaseTTL = flag.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease TTL: silent workers lose their shard after this")
		retry    = flag.Duration("retry-after", dist.DefaultRetryAfter, "wait hint handed to workers when every shard is leased")
		linger   = flag.Duration("linger", 2*time.Second, "after completion, keep serving so straggling workers learn the campaign is done and exit cleanly (0 exits immediately)")
		out      = flag.String("out", "DIST_campaign.json", "final report path (- for stdout)")
		statsOut = flag.String("stats-out", "", "also write ONLY the folded campaign.Stats JSON here (the dist-smoke byte-identity probe)")
		local    = flag.Bool("local", false, "run the campaign in-process through campaign.Run instead of serving workers — the byte-identity baseline")
		list     = flag.Bool("list", false, "list registered workload names and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return
	}
	if *workload == "" {
		log.Fatal("missing -workload (see -list for registered names)")
	}
	// Validate the name now, against the same registry workers use: a typo
	// should fail here, not on every joining worker (each would fail to
	// resolve it, say bye and exit with a local error).
	wl, err := workloads.Lookup(*workload, "models")
	if err != nil {
		log.Fatal(err)
	}

	spec := campaign.Spec{
		Name:            wl.Name,
		Episodes:        *episodes,
		BaseSeed:        *seed,
		Shards:          *shards,
		Invariants:      wl.Invariants,
		CountViolations: true,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckEvery,
	}

	if *local {
		// Baseline mode: the exact campaign the distributed tier would
		// serve, computed in this process by campaign.Run.  dist-smoke
		// byte-compares this run's stats against a chaotic multi-worker
		// run — they must be identical.
		start := time.Now()
		rep, err := campaign.Run(spec, wl.Episode)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("local: %d episodes in %.1fs  safe %.4f", rep.Stats.Episodes, time.Since(start).Seconds(), rep.Stats.SafeRate.Rate)
		if err := writeStats(*statsOut, rep.Stats); err != nil {
			log.Fatal(err)
		}
		return
	}

	coord, err := dist.NewCoordinator(dist.Config{
		Spec:       spec,
		Workload:   wl.Name,
		LeaseTTL:   *leaseTTL,
		RetryAfter: *retry,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := dist.NewServer(coord)
	defer srv.Close()

	if *httpAddr != "" {
		go func() {
			log.Printf("serving /metrics and /healthz on %s", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, srv); err != nil {
				log.Fatalf("http: %v", err)
			}
		}()
	}

	// First signal drains: admissions stop, in-flight shards finish, the
	// checkpoint survives for a later resume.  A second signal force-kills
	// through the default disposition.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		log.Printf("%s: draining (in-flight shards finish, no new leases; signal again to force-quit)", sig)
		coord.Drain()
		signal.Stop(sigs)
	}()

	start := time.Now()
	info := coord.Info()
	log.Printf("campaign %q: %d episodes over %d shards, lease TTL %s, listening on %s",
		info.Name, info.Episodes, info.Shards, *leaseTTL, *addr)
	if resumed := coord.Counters().ResumedShards; resumed > 0 {
		log.Printf("resumed %d/%d shards from %s", resumed, info.Shards, *ckpt)
	}

	go func() {
		if err := srv.ListenAndServe(*addr); err != nil {
			log.Fatalf("serve: %v", err)
		}
	}()

	stats, waitErr := coord.WaitResult()
	wall := time.Since(start)
	ctr := coord.Counters()
	report := distReport{
		GeneratedBy: "cmd/campaignd",
		Campaign:    info,
		Counters:    ctr,
		Wall:        wall.Seconds(),
		Workload:    wl.Name,
	}
	switch {
	case waitErr == nil:
		report.Stats = &stats
		log.Printf("complete: %d episodes in %.1fs  safe %.4f [%.4f, %.4f]  workers %d  reassignments %d  late %d  duplicates %d",
			stats.Episodes, wall.Seconds(),
			stats.SafeRate.Rate, stats.SafeRate.Lo, stats.SafeRate.Hi,
			ctr.WorkersSeen, ctr.Reassignments, ctr.ResultsLate, ctr.ResultsDuplicate)
		if err := writeReport(*out, report); err != nil {
			log.Fatal(err)
		}
		if err := writeStats(*statsOut, stats); err != nil {
			log.Fatal(err)
		}
		// Linger: the last shard's submitter learned of completion in its
		// result ack, but other workers discover it on their NEXT lease
		// request — exiting now would turn that request into a confusing
		// connection-refused retry storm.  Keep answering "done" briefly so
		// stragglers depart cleanly.
		if *linger > 0 {
			time.Sleep(*linger)
		}
	case errors.Is(waitErr, dist.ErrDraining):
		log.Printf("drained: %d/%d shards done in %.1fs; checkpoint preserved for resume", ctr.ShardsDone, ctr.ShardsTotal, wall.Seconds())
		srv.Close()
		os.Exit(3)
	default:
		log.Printf("FAILED: %v", waitErr)
		srv.Close()
		os.Exit(1)
	}
}

// writeStats persists just the folded statistics — the byte-identity
// probe: a distributed run and a -local run of the same campaign must
// produce files that compare equal with cmp(1).
func writeStats(path string, stats campaign.Stats) error {
	if path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(stats, "", " ")
	if err != nil {
		return err
	}
	return campaign.WriteFileAtomic(path, append(raw, '\n'))
}

// writeReport persists the final report atomically (or to stdout).
func writeReport(out string, report distReport) error {
	raw, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	if err := campaign.WriteFileAtomic(out, raw); err != nil {
		return err
	}
	log.Printf("wrote %s", out)
	return nil
}
