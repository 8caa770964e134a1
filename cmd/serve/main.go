// Command serve hosts the compound planner as a long-running streaming
// daemon: many concurrent vehicle sessions, each a resumable episode
// engine fed line-delimited JSON requests over TCP, with live telemetry
// on an HTTP /metrics + /healthz endpoint.
//
// Daemon:
//
//	serve -addr :7355 -http :7356 -shards 8 -max-sessions 100000 -idle-timeout 60s
//
// Protocol (one JSON object per line; see internal/serve):
//
//	{"op":"open","sid":"car-1","scenario":"leftturn","design":"ultimate","planner":"cons","seed":7}
//	{"op":"step","sid":"car-1","steps":10}
//	{"op":"close","sid":"car-1"}
//
// Load generator (against a running daemon, or -self to host one
// in-process):
//
//	serve -loadgen -self -sessions 10000 -conns 32 -batch 20
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"safeplan/internal/serve"
	"safeplan/internal/telemetry"
	"safeplan/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7355", "session-protocol TCP listen address (daemon) or target (loadgen)")
		httpAddr = flag.String("http", "", "HTTP listen address for /metrics and /healthz (daemon; empty disables)")
		shards   = flag.Int("shards", 0, "session worker shards (0 = GOMAXPROCS)")
		maxSess  = flag.Int("max-sessions", 0, "admission-control session cap (0 = default)")
		mailbox  = flag.Int("mailbox", 0, "per-session mailbox bound (0 = default)")
		idle     = flag.Duration("idle-timeout", time.Minute, "idle-session reap timeout (0 disables)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: max wait for live sessions after SIGTERM/SIGINT")

		loadgen  = flag.Bool("loadgen", false, "run the load-generator client instead of the daemon")
		self     = flag.Bool("self", false, "loadgen: host an in-process server instead of dialing -addr")
		sessions = flag.Int("sessions", 1000, "loadgen: concurrent sessions")
		conns    = flag.Int("conns", 16, "loadgen: TCP connections (sessions are spread across them)")
		batch    = flag.Int("batch", 20, "loadgen: engine steps per step request")
		maxSteps = flag.Int("steps", 0, "loadgen: per-session step budget (0 = run every episode to its end)")
		scenario = flag.String("scenario", "leftturn", "loadgen: scenario (leftturn|multi|carfollow)")
		design   = flag.String("design", "ultimate", "loadgen: design (pure|basic|ultimate)")
		planner  = flag.String("planner", "cons", "loadgen: planner (cons|aggr)")
		disturb  = flag.String("disturb", "", "loadgen: channel disturbance preset (empty = perfect comms)")
		seed     = flag.Int64("seed", 1, "loadgen: base seed (session i uses seed+i)")
	)
	flag.Parse()

	if *loadgen {
		if err := runLoadgen(loadgenConfig{
			addr: *addr, self: *self,
			sessions: *sessions, conns: *conns, batch: *batch, maxSteps: *maxSteps,
			scenario: *scenario, design: *design, planner: *planner, disturb: *disturb,
			seed:   *seed,
			server: serve.Config{Shards: *shards, MaxSessions: *maxSess, Mailbox: *mailbox, IdleTimeout: *idle},
		}); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	}

	srv, err := serve.New(serve.Config{
		Shards:      *shards,
		MaxSessions: *maxSess,
		Mailbox:     *mailbox,
		IdleTimeout: *idle,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *httpAddr != "" {
		go func() {
			log.Printf("serving /metrics and /healthz on %s", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, srv); err != nil {
				log.Fatalf("http: %v", err)
			}
		}()
	}
	// Graceful shutdown: the first SIGTERM/SIGINT stops admissions and
	// drains live sessions up to -drain-timeout, then the final metrics
	// snapshot is flushed to the log so the last scrape is never lost.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	log.Printf("serving sessions on %s", *addr)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case sig := <-sigs:
		signal.Stop(sigs) // a second signal force-kills via the default disposition
		log.Printf("%s: draining (no new sessions; waiting up to %s for live sessions)", sig, *drain)
		st, err := srv.Shutdown(*drain)
		flushFinalMetrics(st, srv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}
}

// flushFinalMetrics logs the terminal /metrics payload over the final
// Stats st — the document the HTTP endpoint serves — so a scraper that
// misses the last interval can still recover the final counters from the
// process log.
func flushFinalMetrics(st serve.Stats, srv *serve.Server) {
	raw, err := srv.MetricsJSON(st)
	if err != nil {
		log.Printf("final metrics: %v", err)
		return
	}
	log.Printf("final metrics:\n%s", raw)
}

type loadgenConfig struct {
	addr     string
	self     bool
	sessions int
	conns    int
	batch    int
	maxSteps int
	scenario string
	design   string
	planner  string
	disturb  string
	seed     int64
	server   serve.Config
}

func runLoadgen(cfg loadgenConfig) error {
	if cfg.sessions < 1 || cfg.conns < 1 || cfg.batch < 1 {
		return fmt.Errorf("loadgen: sessions, conns, and batch must be >= 1")
	}
	addr := cfg.addr
	if cfg.self {
		srv, err := serve.New(cfg.server)
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		addr = ln.Addr().String()
		log.Printf("loadgen: self-hosted server on %s", addr)
	}

	var (
		opened, openRejected   atomic.Int64
		finished, stepRejected atomic.Int64
		collided               atomic.Int64
		reqLatency             = telemetry.NewHistogram(
			1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9)
	)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.conns)
	for ci := 0; ci < cfg.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = func() error {
				cl, err := wire.Dial[serve.Request, serve.Response](addr)
				if err != nil {
					return err
				}
				defer cl.Close()

				// This connection's share of the session population.
				var sids []string
				for i := ci; i < cfg.sessions; i += cfg.conns {
					sid := fmt.Sprintf("lg-%d", i)
					resp, err := cl.Do(serve.Request{
						Op: serve.OpOpen, SID: sid,
						Scenario: cfg.scenario, Design: cfg.design, Planner: cfg.planner,
						Disturb: cfg.disturb, Seed: cfg.seed + int64(i),
					})
					if err != nil {
						return err
					}
					if !resp.OK {
						openRejected.Add(1)
						continue
					}
					opened.Add(1)
					sids = append(sids, sid)
				}

				// Round-robin stepping keeps every session concurrently
				// live until its episode ends (or the budget runs out).
				// The working set is compacted in place, so it must not
				// alias sids (still needed for the close sweep).
				live := append([]string(nil), sids...)
				steps := 0
				for len(live) > 0 && (cfg.maxSteps == 0 || steps < cfg.maxSteps) {
					next := live[:0]
					for _, sid := range live {
						t0 := time.Now()
						resp, err := cl.Do(serve.Request{Op: serve.OpStep, SID: sid, Steps: cfg.batch})
						reqLatency.Observe(float64(time.Since(t0).Nanoseconds()))
						if err != nil {
							return err
						}
						switch {
						case !resp.OK:
							stepRejected.Add(1)
						case resp.Done:
							finished.Add(1)
							if resp.Result != nil && resp.Result.Collided {
								collided.Add(1)
							}
						default:
							next = append(next, sid)
						}
					}
					live = next
					steps += cfg.batch
				}

				for _, sid := range sids {
					if _, err := cl.Do(serve.Request{Op: serve.OpClose, SID: sid}); err != nil {
						return err
					}
				}
				return nil
			}()
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	cl, err := wire.Dial[serve.Request, serve.Response](addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	statsResp, err := cl.Do(serve.Request{Op: serve.OpStats})
	if err != nil {
		return err
	}

	lat := reqLatency.Snapshot()
	fmt.Printf("loadgen: %d sessions over %d conns in %.2fs\n", cfg.sessions, cfg.conns, wall.Seconds())
	fmt.Printf("  opened %d  open-rejected %d  finished %d  collided %d  step-rejected %d\n",
		opened.Load(), openRejected.Load(), finished.Load(), collided.Load(), stepRejected.Load())
	fmt.Printf("  request latency p50 %.2fms  p99 %.2fms\n",
		lat.Quantile(0.5)/1e6, lat.Quantile(0.99)/1e6)
	if st := statsResp.Stats; st != nil {
		fmt.Printf("  server: peak %d sessions, %d steps (%.0f steps/s), step p50 %.2fµs p99 %.2fµs\n",
			st.PeakSessions, st.StepsExecuted, float64(st.StepsExecuted)/wall.Seconds(),
			st.StepLatencyNs.Quantile(0.5)/1e3, st.StepLatencyNs.Quantile(0.99)/1e3)
		if len(st.Rejections) > 0 {
			fmt.Printf("  server rejections: %v\n", st.Rejections)
		}
	}
	if c := collided.Load(); c > 0 {
		return fmt.Errorf("loadgen: %d episodes collided", c)
	}
	return nil
}
