package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"safeplan/internal/comms"
)

// newTestServer starts a server on a loopback listener and tears it down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// testClient is one synchronous protocol connection.
type testClient struct {
	t    *testing.T
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (c *testClient) do(req Request) Response {
	c.t.Helper()
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatal(err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// stepToEnd drives one session to its episode's natural end.
func (c *testClient) stepToEnd(sid string, batch int) Response {
	c.t.Helper()
	for i := 0; i < 10000; i++ {
		resp := c.do(Request{Op: OpStep, SID: sid, Steps: batch})
		if !resp.OK {
			c.t.Fatalf("step rejected: %+v", resp)
		}
		if resp.Done {
			return resp
		}
	}
	c.t.Fatalf("session %s did not terminate", sid)
	return Response{}
}

func TestOpenStepCloseLifecycle(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 2})
	cl := dialTest(t, addr)

	if resp := cl.do(Request{Op: OpPing}); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpOpen, SID: "a", Seed: 3}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	final := cl.stepToEnd("a", 25)
	if final.Result == nil {
		t.Fatalf("terminal step carries no result: %+v", final)
	}
	if !final.Result.Reached || final.Result.Collided {
		t.Fatalf("default leftturn/ultimate episode should reach safely: %+v", final.Result)
	}
	// Stepping past the end returns the terminal outcome, unchanged.
	over := cl.do(Request{Op: OpStep, SID: "a"})
	if !over.OK || !over.Done || over.Result == nil || *over.Result != *final.Result {
		t.Fatalf("past-the-end step: %+v", over)
	}
	// Close carries the settled result and frees the SID.
	closed := cl.do(Request{Op: OpClose, SID: "a"})
	if !closed.OK || closed.Result == nil || *closed.Result != *final.Result {
		t.Fatalf("close: %+v", closed)
	}
	if resp := cl.do(Request{Op: OpStep, SID: "a"}); resp.OK || resp.Reason != ReasonUnknownSession {
		t.Fatalf("step after close: %+v", resp)
	}

	st := srv.Stats()
	if st.SessionsOpened != 1 || st.SessionsClosed != 1 || st.LiveSessions != 0 || st.EpisodesFinished != 1 {
		t.Fatalf("stats after lifecycle: %+v", st)
	}
}

// TestStatsSettledAtCloseReply pins the teardown order: a client that
// has read a close answer must already see the session counted closed
// and its admission slot free in Stats.  Run it with -race -count=200 to
// shake out interleavings.
func TestStatsSettledAtCloseReply(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 2, MaxSessions: 1})
	cl := dialTest(t, addr)
	for i := 0; i < 20; i++ {
		sid := "s" + strconv.Itoa(i)
		if resp := cl.do(Request{Op: OpOpen, SID: sid, Seed: int64(i)}); !resp.OK {
			t.Fatalf("open %s: %+v", sid, resp)
		}
		if resp := cl.do(Request{Op: OpStep, SID: sid, Steps: 3}); !resp.OK {
			t.Fatalf("step %s: %+v", sid, resp)
		}
		if resp := cl.do(Request{Op: OpClose, SID: sid}); !resp.OK {
			t.Fatalf("close %s: %+v", sid, resp)
		}
		if st := srv.Stats(); st.SessionsClosed != int64(i+1) || st.LiveSessions != 0 {
			t.Fatalf("stats right after closing %s: %+v", sid, st)
		}
	}
}

func TestCloseMidEpisodeYieldsPartialResult(t *testing.T) {
	_, addr := newTestServer(t, Config{Shards: 1})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "cancel", Seed: 1}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpStep, SID: "cancel", Steps: 7}); !resp.OK || resp.Done {
		t.Fatalf("partial step: %+v", resp)
	}
	resp := cl.do(Request{Op: OpClose, SID: "cancel"})
	if !resp.OK || resp.Result == nil {
		t.Fatalf("cancel close: %+v", resp)
	}
	if resp.Result.Steps != 7 || resp.Result.Reached || resp.Result.Collided {
		t.Fatalf("cancelled episode should settle 7 open steps, got %+v", resp.Result)
	}
}

func TestRejections(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 1, MaxSessions: 2})
	cl := dialTest(t, addr)

	if resp := cl.do(Request{Op: OpOpen, SID: "one"}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	// Duplicate SID (below the cap, so admission passes first).
	cl2 := dialTest(t, addr)
	if resp := cl2.do(Request{Op: OpOpen, SID: "one"}); resp.OK || resp.Reason != ReasonDuplicateSession {
		t.Fatalf("duplicate open: %+v", resp)
	}
	// Admission control at the cap.
	if resp := cl.do(Request{Op: OpOpen, SID: "two"}); !resp.OK {
		t.Fatalf("open two: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpOpen, SID: "three"}); resp.OK || resp.Reason != ReasonSaturated {
		t.Fatalf("saturated open: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpClose, SID: "two"}); !resp.OK {
		t.Fatalf("close two: %+v", resp)
	}
	// Unknown session.
	if resp := cl.do(Request{Op: OpStep, SID: "ghost"}); resp.OK || resp.Reason != ReasonUnknownSession {
		t.Fatalf("unknown step: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpClose, SID: "ghost"}); resp.OK || resp.Reason != ReasonUnknownSession {
		t.Fatalf("unknown close: %+v", resp)
	}
	// Bad requests: unknown op, missing SID, invalid open parameters.
	if resp := cl.do(Request{Op: "warp", SID: "one"}); resp.OK || resp.Reason != ReasonBadRequest {
		t.Fatalf("unknown op: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpOpen}); resp.OK || resp.Reason != ReasonBadRequest {
		t.Fatalf("open without sid: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpClose, SID: "one"}); !resp.OK {
		t.Fatalf("cleanup close: %+v", resp)
	}
	if resp := cl.do(Request{Op: OpOpen, SID: "bad", Scenario: "hovercraft"}); resp.OK || resp.Reason != ReasonBadRequest {
		t.Fatalf("bad scenario: %+v", resp)
	}
	// The failed open must release its admission slot.
	if n := srv.Stats().LiveSessions; n != 0 {
		t.Fatalf("failed open leaked %d live sessions", n)
	}
	// Malformed JSON gets a bad-request response, then the connection drops.
	cl3 := dialTest(t, addr)
	if _, err := cl3.conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := cl3.dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Reason != ReasonBadRequest {
		t.Fatalf("malformed line: %+v", resp)
	}

	st := srv.Stats()
	for _, reason := range []string{ReasonSaturated, ReasonDuplicateSession, ReasonUnknownSession, ReasonBadRequest} {
		if st.Rejections[reason] == 0 {
			t.Fatalf("no %s rejection counted: %+v", reason, st.Rejections)
		}
	}
}

// TestBackpressure exercises the bounded-mailbox contract directly: the
// enqueue path must reject (never block) on a full mailbox, and must
// reject with the closed reason once teardown has flipped the session.
func TestBackpressure(t *testing.T) {
	sess := &session{id: "bp", mailbox: make(chan envelope, 2)}
	w := &connWriter{}
	for i := 0; i < 2; i++ {
		if reason := sess.enqueue(envelope{w: w}); reason != "" {
			t.Fatalf("enqueue %d rejected: %s", i, reason)
		}
	}
	done := make(chan string, 1)
	go func() { done <- sess.enqueue(envelope{w: w}) }()
	select {
	case reason := <-done:
		if reason != ReasonBackpressure {
			t.Fatalf("full-mailbox enqueue: got %q, want %q", reason, ReasonBackpressure)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue blocked on a full mailbox")
	}
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
	if reason := sess.enqueue(envelope{w: w}); reason != ReasonSessionClosed {
		t.Fatalf("closed enqueue: got %q, want %q", reason, ReasonSessionClosed)
	}
}

// TestBackpressureEndToEnd fills a 1-slot mailbox through the wire: two
// clients race step requests at a session whose worker is busy servicing
// a large batch, so one enqueue must observe a full mailbox eventually.
func TestBackpressureEndToEnd(t *testing.T) {
	_, addr := newTestServer(t, Config{Shards: 1, Mailbox: 1, MaxStepsPerRequest: 1 << 20})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "bp", Scenario: ScenarioCarFollow}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	// Fire-and-forget steps from a second connection while the first keeps
	// the worker busy; with a single shard and a 1-deep mailbox some must
	// bounce.  (Responses are drained concurrently so the writer never
	// stalls on a full socket.)
	cl2 := dialTest(t, addr)
	sawBackpressure := make(chan struct{})
	go func() {
		var once sync.Once
		for {
			var resp Response
			if err := cl2.dec.Decode(&resp); err != nil {
				return
			}
			if resp.Reason == ReasonBackpressure {
				once.Do(func() { close(sawBackpressure) })
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; ; i++ {
		if err := cl2.enc.Encode(Request{Op: OpStep, SID: "bp", Steps: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sawBackpressure:
			return
		case <-deadline:
			t.Fatal("no backpressure rejection after sustained overload")
		default:
		}
	}
}

func TestIdleReap(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 1, IdleTimeout: 60 * time.Millisecond})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "idle"}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := cl.do(Request{Op: OpClose, SID: "idle"})
		if !resp.OK && resp.Reason == ReasonUnknownSession {
			break // reaped
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		// A successful close means we raced ahead of the reaper — reopen
		// and keep waiting, this time without touching it.
		if resp.OK {
			if r := cl.do(Request{Op: OpOpen, SID: "idle"}); !r.OK {
				t.Fatalf("reopen: %+v", r)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st := srv.Stats(); st.SessionsReaped == 0 || st.LiveSessions != 0 {
		t.Fatalf("reap stats: %+v", st)
	}
}

// TestSessionOutlivesConnection pins that sessions are keyed by SID, not
// by connection: a client may reconnect and keep stepping.
func TestSessionOutlivesConnection(t *testing.T) {
	_, addr := newTestServer(t, Config{Shards: 1})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "roam", Seed: 4}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	first := cl.do(Request{Op: OpStep, SID: "roam", Steps: 3})
	if !first.OK || first.Done {
		t.Fatalf("first step: %+v", first)
	}
	cl.conn.Close()

	cl2 := dialTest(t, addr)
	second := cl2.do(Request{Op: OpStep, SID: "roam", Steps: 3})
	if !second.OK || second.Step != first.Step+3 {
		t.Fatalf("resumed step: %+v (after %+v)", second, first)
	}
	if resp := cl2.do(Request{Op: OpClose, SID: "roam"}); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
}

// TestStreamedEventInjection pins the wire-level StepInput path: two
// sessions with identical seeds under the same bursty channel evolve
// identically, so feeding one of them an out-of-band V2V report must make
// the trajectories diverge — proof the Msgs field reaches the fusion
// filter rather than being dropped at the protocol layer.
func TestStreamedEventInjection(t *testing.T) {
	_, addr := newTestServer(t, Config{Shards: 1})
	cl := dialTest(t, addr)
	for _, sid := range []string{"plain", "fed"} {
		if resp := cl.do(Request{Op: OpOpen, SID: sid, Seed: 6, Disturb: "burst"}); !resp.OK {
			t.Fatalf("open %s: %+v", sid, resp)
		}
	}
	step := func(sid string, n int, msgs []comms.Message) Response {
		resp := cl.do(Request{Op: OpStep, SID: sid, Steps: n, Msgs: msgs})
		if !resp.OK {
			t.Fatalf("step %s: %+v", sid, resp)
		}
		return resp
	}
	step("plain", 10, nil)
	step("fed", 10, nil)
	// A false report — the oncoming vehicle much closer than the channel
	// has let on — must flow into the fusion filter and leave a visible
	// scar on the fed session's episode accounting (fused-interval misses
	// and sound violations while the lie is the freshest message).
	step("fed", 1, []comms.Message{{Sender: 1, T: 0.5, P: -16, V: 10}})
	step("plain", 1, nil)
	plain := cl.stepToEnd("plain", 25).Result
	fed := cl.stepToEnd("fed", 25).Result
	if plain == nil || fed == nil {
		t.Fatalf("missing terminal results: plain=%+v fed=%+v", plain, fed)
	}
	if *plain == *fed {
		t.Fatalf("injected V2V report left the fed session's episode identical: %+v", fed)
	}
	if fed.SoundViolations <= plain.SoundViolations {
		t.Fatalf("false report should raise sound violations: plain=%d fed=%d",
			plain.SoundViolations, fed.SoundViolations)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 1})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "m", Seed: 2}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	cl.stepToEnd("m", 50)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var payload struct {
		Server Stats `json:"server"`
		Engine struct {
			Episodes int64 `json:"episodes"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics payload: %v\n%s", err, rec.Body.String())
	}
	if payload.Server.EpisodesFinished != 1 || payload.Engine.Episodes != 1 {
		t.Fatalf("metrics payload counts: %+v", payload)
	}
	// The endpoint serves the document a shutting-down daemon logs.
	if raw, err := srv.MetricsJSON(srv.Stats()); err != nil || !bytes.Equal(rec.Body.Bytes(), append(raw, '\n')) {
		t.Fatalf("MetricsJSON (err %v):\n%s\nServeHTTP:\n%s", err, raw, rec.Body.Bytes())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path: %d", rec.Code)
	}
	srv.Close()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz while closing: %d", rec.Code)
	}
}

// TestGracefulShutdownDrains: Shutdown stops admissions (ReasonDraining,
// healthz 503) while the in-flight session keeps stepping to its natural
// end; once the last session closes, Shutdown returns the final Stats.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 2})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "d1", Seed: 5}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}

	done := make(chan struct{})
	var finalSt Stats
	var shutErr error
	go func() {
		finalSt, shutErr = srv.Shutdown(10 * time.Second)
		close(done)
	}()

	// The draining flag flips before Shutdown starts waiting, but give the
	// goroutine a moment to be scheduled at all.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := cl.do(Request{Op: OpOpen, SID: "d2"})
		if !resp.OK && resp.Reason == ReasonDraining {
			break
		}
		if resp.OK {
			// Won the race against the drain flag; retire it and retry.
			cl.do(Request{Op: OpClose, SID: "d2"})
		}
		if time.Now().After(deadline) {
			t.Fatal("draining never became observable to opens")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz while draining: %d", rec.Code)
	}

	// The in-flight session is NOT interrupted: it steps to its episode's
	// natural end and closes normally while the server drains.
	final := cl.stepToEnd("d1", 25)
	if final.Result == nil || !final.Result.Reached {
		t.Fatalf("drained session should finish normally: %+v", final)
	}
	if resp := cl.do(Request{Op: OpClose, SID: "d1"}); !resp.OK {
		t.Fatalf("close during drain: %+v", resp)
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last session closed")
	}
	if shutErr != nil {
		t.Fatalf("Shutdown: %v", shutErr)
	}
	if !finalSt.Draining || finalSt.LiveSessions != 0 {
		t.Fatalf("final stats after drain: %+v", finalSt)
	}
	if finalSt.Rejections[ReasonDraining] == 0 {
		t.Fatalf("draining rejection not counted: %+v", finalSt.Rejections)
	}
	// Idempotent with Close (which Cleanup will call again): a second
	// Shutdown finds nothing live and returns the same final snapshot.
	if st, err := srv.Shutdown(time.Second); err != nil || !st.Draining {
		t.Fatalf("second Shutdown: %+v, %v", st, err)
	}
}

// TestShutdownDeadlineStrandsSessions: a session that never finishes
// forces Shutdown to give up at the deadline, close hard, and report the
// stranded count.
func TestShutdownDeadlineStrandsSessions(t *testing.T) {
	srv, addr := newTestServer(t, Config{Shards: 1})
	cl := dialTest(t, addr)
	if resp := cl.do(Request{Op: OpOpen, SID: "stuck", Seed: 2}); !resp.OK {
		t.Fatalf("open: %+v", resp)
	}
	st, err := srv.Shutdown(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "still live") {
		t.Fatalf("deadline shutdown error: %v", err)
	}
	if st.LiveSessions != 1 {
		t.Fatalf("stranded session not reflected in final stats: %+v", st)
	}
}

// TestSoak is the scaled-down-in-race / full-scale-native soak: a
// population of concurrent sessions (default soakDefaultSessions,
// override with SERVE_SOAK_SESSIONS) stepped to natural termination over
// a pool of connections, asserting the p99 step-latency SLO, zero
// SoundViolations, zero collisions, and no goroutine leak across Close.
func TestSoak(t *testing.T) {
	sessions := soakDefaultSessions
	if env := os.Getenv("SERVE_SOAK_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad SERVE_SOAK_SESSIONS=%q", env)
		}
		sessions = n
	}
	conns := 4 * runtime.GOMAXPROCS(0)
	if conns > sessions {
		conns = sessions
	}

	before := runtime.NumGoroutine()
	srv, err := New(Config{MaxSessions: sessions + 1, IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	errs := make([]error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = func() error {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
				do := func(req Request) (Response, error) {
					if err := enc.Encode(req); err != nil {
						return Response{}, err
					}
					var resp Response
					err := dec.Decode(&resp)
					return resp, err
				}
				var sids []string
				for i := ci; i < sessions; i += conns {
					sid := fmt.Sprintf("soak-%d", i)
					resp, err := do(Request{Op: OpOpen, SID: sid, Seed: int64(i), Disturb: "burst"})
					if err != nil {
						return err
					}
					if !resp.OK {
						return fmt.Errorf("open %s rejected: %s", sid, resp.Reason)
					}
					sids = append(sids, sid)
				}
				// Round-robin so the whole stripe stays concurrently live.
				live := append([]string(nil), sids...)
				for len(live) > 0 {
					next := live[:0]
					for _, sid := range live {
						resp, err := do(Request{Op: OpStep, SID: sid, Steps: 25})
						if err != nil {
							return err
						}
						if !resp.OK {
							return fmt.Errorf("step %s rejected: %s", sid, resp.Reason)
						}
						if resp.Done {
							if resp.Result == nil || resp.Result.Collided {
								return fmt.Errorf("session %s: bad terminal result %+v", sid, resp.Result)
							}
							continue
						}
						next = append(next, sid)
					}
					live = next
				}
				for _, sid := range sids {
					if resp, err := do(Request{Op: OpClose, SID: sid}); err != nil {
						return err
					} else if !resp.OK {
						return fmt.Errorf("close %s rejected: %s", sid, resp.Reason)
					}
				}
				return nil
			}()
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if st.PeakSessions < int64(sessions) {
		t.Fatalf("peak sessions %d, want the full population %d concurrently live", st.PeakSessions, sessions)
	}
	if st.EpisodesFinished != int64(sessions) || st.LiveSessions != 0 {
		t.Fatalf("soak stats: %+v", st)
	}
	if p99 := st.StepLatencyNs.Quantile(0.99); p99 > soakStepSLO {
		t.Fatalf("step latency p99 %.0fns exceeds SLO %.0fns", p99, float64(soakStepSLO))
	}
	engine := srv.metrics.Snapshot()
	if engine.SoundViolations != 0 {
		t.Fatalf("soak produced %d sound violations", engine.SoundViolations)
	}
	t.Logf("soak: %d sessions, %d steps, step p50 %.2fµs p99 %.2fµs, rejections %v",
		sessions, st.StepsExecuted,
		st.StepLatencyNs.Quantile(0.5)/1e3, st.StepLatencyNs.Quantile(0.99)/1e3, st.Rejections)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Leak check: all server goroutines (shards, reaper, conn handlers)
	// must be gone.  Allow brief scheduler lag and a small slack for
	// runtime-internal goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before soak, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTeardownIdempotent pins the second teardown of a session — a close
// that raced a failed open's teardown — as a no-op that only answers the
// close: the admission slot is released once, not twice.
func TestTeardownIdempotent(t *testing.T) {
	srv, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	w := &connWriter{enc: json.NewEncoder(server)}
	replies := make(chan Response, 1)
	go func() {
		var r Response
		if json.NewDecoder(client).Decode(&r) == nil {
			replies <- r
		}
	}()

	sh := srv.shards[0]
	sess := &session{id: "x", sh: sh, mailbox: make(chan envelope, 1)}
	sh.mu.Lock()
	sh.sessions[sess.id] = sess
	sh.mu.Unlock()
	srv.live.Add(1)

	sh.teardown(sess, nil, &srv.closed)
	sh.teardown(sess, &envelope{req: Request{Op: OpClose, SID: "x"}, w: w}, &srv.closed)
	if r := <-replies; r.OK || r.Reason != ReasonSessionClosed {
		t.Fatalf("close on a torn-down session: %+v", r)
	}
	if st := srv.Stats(); st.LiveSessions != 0 || st.SessionsClosed != 1 {
		t.Fatalf("second teardown counted again: live %d, closed %d", st.LiveSessions, st.SessionsClosed)
	}
}
