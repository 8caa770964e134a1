// Package serve hosts the compound planner as a long-running streaming
// service: many concurrent vehicle *sessions*, each a resumable episode
// engine (sim.MultiStepper — the left-turn engine, run as the
// single-vehicle left turn or the oncoming stream — or carfollow.Stepper,
// the stop-and-go chain engine, run as its two-vehicle car-following
// case) fed by streamed V2V/sensor events over a line-delimited JSON
// protocol.
//
// Ownership model: sessions are sharded by SID hash across a fixed pool
// of worker goroutines.  All engine access happens on the owning shard's
// worker; connection readers only enqueue into a bounded per-session
// mailbox (a full mailbox is the backpressure signal — the reader rejects
// instead of blocking).  Admission control caps the number of live
// sessions; an idle reaper retires sessions no client has touched within
// the idle timeout.  Sessions are not bound to connections: a client may
// drop its TCP connection and keep stepping the same SID from a new one.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// Config tunes a Server.  The zero value selects sensible defaults for
// every field.
type Config struct {
	// Shards is the number of session worker goroutines (and session-map
	// shards).  0 selects GOMAXPROCS.
	Shards int
	// MaxSessions caps concurrently live sessions (admission control);
	// opens beyond the cap are rejected with ReasonSaturated.  0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// Mailbox is the per-session pending-request bound; a full mailbox
	// rejects with ReasonBackpressure.  0 selects DefaultMailbox.
	Mailbox int
	// MaxStepsPerRequest clamps OpStep batch sizes.  0 selects
	// DefaultMaxStepsPerRequest.
	MaxStepsPerRequest int
	// IdleTimeout retires sessions with no client activity for this long.
	// 0 disables the reaper.
	IdleTimeout time.Duration
}

// Defaults for the zero Config.
const (
	DefaultMaxSessions        = 1 << 14
	DefaultMailbox            = 16
	DefaultMaxStepsPerRequest = 1024
)

func (c *Config) fill() error {
	if c.Shards < 0 || c.MaxSessions < 0 || c.Mailbox < 0 || c.MaxStepsPerRequest < 0 || c.IdleTimeout < 0 {
		return fmt.Errorf("serve: negative Config field")
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.Mailbox == 0 {
		c.Mailbox = DefaultMailbox
	}
	if c.MaxStepsPerRequest == 0 {
		c.MaxStepsPerRequest = DefaultMaxStepsPerRequest
	}
	return nil
}

// Stats is a point-in-time summary of server activity, exported on
// OpStats responses and the /metrics endpoint.
type Stats struct {
	Shards int `json:"shards"`

	LiveSessions int64 `json:"live_sessions"`
	PeakSessions int64 `json:"peak_sessions"`

	SessionsOpened int64 `json:"sessions_opened"`
	SessionsClosed int64 `json:"sessions_closed"`
	SessionsReaped int64 `json:"sessions_reaped"`
	// EpisodesFinished counts episodes stepped to natural termination
	// (collision, target, or horizon) — closes mid-episode don't count.
	EpisodesFinished int64 `json:"episodes_finished"`

	StepRequests  int64 `json:"step_requests"`
	StepsExecuted int64 `json:"steps_executed"`

	// Rejections by machine-readable reason (see the Reason* constants);
	// omitted when no request was rejected.
	Rejections map[string]int64 `json:"rejections,omitempty"`

	// Draining reports a graceful shutdown in progress: opens are
	// rejected, existing sessions run to completion or the deadline.
	Draining bool `json:"draining,omitempty"`

	// StepLatencyNs distributes the service-side latency of single
	// engine steps (the soak SLO's p99 source).
	StepLatencyNs telemetry.HistogramSnapshot `json:"step_latency_ns"`
}

// rejection reasons indexed for lock-free counting.
var reasonNames = []string{
	ReasonSaturated,
	ReasonBackpressure,
	ReasonUnknownSession,
	ReasonDuplicateSession,
	ReasonSessionClosed,
	ReasonBadRequest,
	ReasonDraining,
}

func reasonIndex(reason string) int {
	for i, r := range reasonNames {
		if r == reason {
			return i
		}
	}
	return -1
}

// stepLatencyBounds spans 1 µs … 1 s in ns, exponential.
var stepLatencyBounds = []float64{
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
	1e6, 2e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9,
}

// Server hosts streamed planner sessions over line-delimited JSON.  Use
// New, then Serve (or ListenAndServe) for the session protocol and the
// Server itself as an http.Handler for /metrics and /healthz.
type Server struct {
	cfg     Config
	metrics *telemetry.Metrics
	shards  []*shard

	live     atomic.Int64
	peak     atomic.Int64
	draining atomic.Bool
	// answering counts teardowns still writing their answers.  It rises
	// before live falls, so Shutdown, which waits for both to reach zero,
	// never closes a connection under an answer in flight.
	answering atomic.Int64

	opened   atomic.Int64
	closed   atomic.Int64
	reaped   atomic.Int64
	finished atomic.Int64

	stepReqs atomic.Int64
	steps    atomic.Int64
	rejects  []atomic.Int64 // indexed like reasonNames

	stepLatency *telemetry.Histogram

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closing  bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a Server and starts its shard workers (and the idle reaper
// when Config.IdleTimeout is set).  Call Close to release them.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		metrics:     telemetry.NewMetrics(),
		rejects:     make([]atomic.Int64, len(reasonNames)),
		stepLatency: telemetry.NewHistogram(stepLatencyBounds...),
		conns:       make(map[net.Conn]struct{}),
		quit:        make(chan struct{}),
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			srv:      s,
			sessions: make(map[string]*session),
			// One runqueue slot per live session (the scheduled flag
			// dedupes); the 2× headroom absorbs stale entries from
			// close/teardown races so a send never blocks a reader.
			runq: make(chan *session, 2*cfg.MaxSessions),
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go sh.run()
	}
	if cfg.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.reaper()
	}
	return s, nil
}

// Metrics returns the engine-side telemetry collector shared by every
// session (step probes, episode outcomes, sound-violation counters).
func (s *Server) Metrics() *telemetry.Metrics { return s.metrics }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:           len(s.shards),
		LiveSessions:     s.live.Load(),
		PeakSessions:     s.peak.Load(),
		SessionsOpened:   s.opened.Load(),
		SessionsClosed:   s.closed.Load(),
		SessionsReaped:   s.reaped.Load(),
		EpisodesFinished: s.finished.Load(),
		StepRequests:     s.stepReqs.Load(),
		StepsExecuted:    s.steps.Load(),
		StepLatencyNs:    s.stepLatency.Snapshot(),
		Draining:         s.draining.Load(),
	}
	for i, name := range reasonNames {
		if n := s.rejects[i].Load(); n > 0 {
			if st.Rejections == nil {
				st.Rejections = make(map[string]int64)
			}
			st.Rejections[name] = n
		}
	}
	return st
}

// ListenAndServe listens on addr and serves the session protocol until
// Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts session-protocol connections on ln until Close.  It
// returns nil after Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the protocol listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Shutdown drains the server gracefully: new session opens are rejected
// with ReasonDraining (and /healthz flips to 503 so orchestrators stop
// routing here), while live sessions keep stepping until they close,
// finish, or are reaped.  Once no session remains and every close answer
// has been written — or the deadline
// passes with sessions still live — the server closes hard and the
// final Stats snapshot is returned for a last metrics flush.  A zero or
// negative deadline closes immediately after the drain flag is up.
//
// Shutdown is idempotent with Close: whichever runs first wins, the
// loser is a no-op returning the (already final) Stats.
func (s *Server) Shutdown(deadline time.Duration) (Stats, error) {
	s.draining.Store(true)
	waited := time.Duration(0)
	const poll = 10 * time.Millisecond
	for waited < deadline && (s.live.Load() > 0 || s.answering.Load() > 0) {
		time.Sleep(poll)
		waited += poll
	}
	stranded := s.live.Load()
	err := s.Close()
	st := s.Stats()
	if err == nil && stranded > 0 {
		err = fmt.Errorf("serve: drain deadline %s passed with %d sessions still live", deadline, stranded)
	}
	return st, err
}

// Close stops accepting, drops every connection, stops the shard workers
// and reaper, and waits for all server goroutines to exit.  Live session
// state is discarded (no Finish bookkeeping — the process is going away).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.quit)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// handleConn reads one Request per line and dispatches it.  Malformed
// lines get a bad-request response; a read error ends the connection
// (its sessions stay live for other connections or the reaper).
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := newConnWriter(conn)
	dec := json.NewDecoder(conn)
	dec.DisallowUnknownFields()
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			// Distinguish a malformed line from connection teardown: after
			// a JSON syntax error the stream offset is unrecoverable, so
			// reject and drop the connection either way.
			var syn *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if errors.As(err, &syn) || errors.As(err, &typ) || strings.HasPrefix(err.Error(), "json: unknown field") {
				s.reject(w, Request{}, ReasonBadRequest, "malformed request: "+err.Error())
			}
			return
		}
		s.dispatch(req, w)
	}
}

// dispatch routes one request.  Ping and stats answer inline; session ops
// go through the owning shard.
func (s *Server) dispatch(req Request, w *connWriter) {
	switch req.Op {
	case OpPing:
		w.send(Response{SID: req.SID, Op: OpPing, OK: true})
	case OpStats:
		st := s.Stats()
		w.send(Response{SID: req.SID, Op: OpStats, OK: true, Stats: &st})
	case OpOpen:
		s.open(req, w)
	case OpStep:
		s.step(req, w)
	case OpClose:
		s.closeSession(req, w)
	default:
		s.reject(w, req, ReasonBadRequest, fmt.Sprintf("unknown op %q", req.Op))
	}
}

func (s *Server) reject(w *connWriter, req Request, reason, msg string) {
	if i := reasonIndex(reason); i >= 0 {
		s.rejects[i].Add(1)
	}
	w.send(reject(req, reason, msg))
}

// shardFor routes a SID to its owning shard by FNV-1a hash.
func (s *Server) shardFor(sid string) *shard {
	h := fnv.New32a()
	h.Write([]byte(sid))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// open admits a new session: reserve a live slot (admission control),
// register the SID, and enqueue the open envelope — the shard worker
// builds the engine so all engine and scratch access stays worker-owned.
func (s *Server) open(req Request, w *connWriter) {
	if req.SID == "" {
		s.reject(w, req, ReasonBadRequest, "open requires a sid")
		return
	}
	if s.draining.Load() {
		s.reject(w, req, ReasonDraining, "server is draining")
		return
	}
	for {
		n := s.live.Load()
		if n >= int64(s.cfg.MaxSessions) {
			s.reject(w, req, ReasonSaturated,
				fmt.Sprintf("at session cap %d", s.cfg.MaxSessions))
			return
		}
		if s.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	sess := &session{
		id:      req.SID,
		mailbox: make(chan envelope, s.cfg.Mailbox),
	}
	sess.touch()
	sh := s.shardFor(req.SID)
	sess.sh = sh
	// Enqueue the open envelope while the mailbox is still private — once
	// the SID is registered, racing step requests compete for the slots.
	sess.mailbox <- envelope{req: req, w: w}
	sh.mu.Lock()
	if _, dup := sh.sessions[req.SID]; dup {
		sh.mu.Unlock()
		s.live.Add(-1)
		s.reject(w, req, ReasonDuplicateSession, fmt.Sprintf("session %q is live", req.SID))
		return
	}
	sh.sessions[req.SID] = sess
	sh.mu.Unlock()
	for {
		p := s.peak.Load()
		if n := s.live.Load(); n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	s.opened.Add(1)
	sess.schedule()
}

// lookup finds a live session, or rejects with ReasonUnknownSession.
func (s *Server) lookup(req Request, w *connWriter) *session {
	if req.SID == "" {
		s.reject(w, req, ReasonBadRequest, req.Op+" requires a sid")
		return nil
	}
	sh := s.shardFor(req.SID)
	sh.mu.Lock()
	sess := sh.sessions[req.SID]
	sh.mu.Unlock()
	if sess == nil {
		s.reject(w, req, ReasonUnknownSession, fmt.Sprintf("no live session %q", req.SID))
		return nil
	}
	return sess
}

// step enqueues a step request into the session's bounded mailbox.
func (s *Server) step(req Request, w *connWriter) {
	sess := s.lookup(req, w)
	if sess == nil {
		return
	}
	sess.touch()
	if reason := sess.enqueue(envelope{req: req, w: w}); reason != "" {
		msg := "mailbox full"
		if reason == ReasonSessionClosed {
			msg = "session closed while enqueuing"
		}
		s.reject(w, req, reason, msg)
		return
	}
	sess.schedule()
}

// closeSession requests teardown.  Close jumps the mailbox queue — it is
// the cancellation path — so requests still pending in the mailbox are
// answered with ReasonSessionClosed.
func (s *Server) closeSession(req Request, w *connWriter) {
	sess := s.lookup(req, w)
	if sess == nil {
		return
	}
	sess.touch()
	env := &envelope{req: req, w: w}
	if !sess.closeReq.CompareAndSwap(nil, env) {
		s.reject(w, req, ReasonSessionClosed, "close already pending")
		return
	}
	sess.schedule()
}

// reaper periodically retires sessions idle past the configured timeout.
func (s *Server) reaper() {
	defer s.wg.Done()
	period := s.cfg.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	var stale []*session
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
		for _, sh := range s.shards {
			stale = stale[:0]
			sh.mu.Lock()
			for _, sess := range sh.sessions {
				if sess.lastActive.Load() < cutoff {
					stale = append(stale, sess)
				}
			}
			sh.mu.Unlock()
			for _, sess := range stale {
				sess.reap.Store(true)
				sess.schedule()
			}
		}
	}
}

// ServeHTTP exposes /healthz (liveness) and /metrics (server Stats plus
// the shared engine telemetry snapshot) — mount the Server on an
// http.Server to publish them.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.mu.Lock()
		closing := s.closing
		s.mu.Unlock()
		if closing || s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case "/metrics":
		payload := struct {
			Server Stats              `json:"server"`
			Engine telemetry.Snapshot `json:"engine"`
		}{s.Stats(), s.metrics.Snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	default:
		http.NotFound(w, r)
	}
}

// connWriter serializes response lines onto one connection: sessions on
// different shards answer concurrently, so every write is mutex-guarded
// and a failed connection swallows later sends (the reader side tears the
// connection down).
type connWriter struct {
	mu   sync.Mutex
	enc  *json.Encoder
	conn net.Conn
	err  error
}

func newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{enc: json.NewEncoder(conn), conn: conn}
}

func (w *connWriter) send(resp Response) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	err := w.enc.Encode(resp)
	var uv *json.UnsupportedValueError
	if errors.As(err, &uv) {
		// Streamed events with extreme values can drive an engine to a
		// non-finite output, which JSON cannot carry.  Encode writes
		// nothing on a marshal error, so answer with the error instead of
		// poisoning the connection for every later response.
		err = w.enc.Encode(Response{SID: resp.SID, Op: resp.Op, Error: "serve: response not encodable: " + err.Error()})
	}
	w.err = err
}

// shard owns a disjoint subset of the session registry and the single
// worker goroutine that touches those sessions' engines.  The free list
// recycles scratch arenas across session churn: a closed session's pooled
// engine and buffers are reused by the next open on the same shard.
type shard struct {
	srv *Server

	mu       sync.Mutex
	sessions map[string]*session

	runq chan *session

	// free is worker-owned (no locking): arenas are taken at open
	// processing and returned at teardown, both on the worker.
	free []*sim.Scratch
}

func (sh *shard) run() {
	defer sh.srv.wg.Done()
	for {
		select {
		case <-sh.srv.quit:
			return
		case sess := <-sh.runq:
			sh.service(sess)
		}
	}
}

// service drains one scheduled session: teardown requests first (close
// jumps the queue), then the mailbox.  The scheduled-flag dance at the
// end closes the lost-wakeup race against concurrent enqueues; it runs
// after a teardown too, so a close that found the session just before it
// left the registry still gets its session-closed answer.
func (sh *shard) service(sess *session) {
	for {
		if env := sess.closeReq.Swap(nil); env != nil {
			sh.teardown(sess, env, &sh.srv.closed)
			continue
		}
		if sess.reap.Swap(false) {
			sh.teardown(sess, nil, &sh.srv.reaped)
			continue
		}
		select {
		case env := <-sess.mailbox:
			sh.process(sess, env)
		default:
			sess.scheduled.Store(false)
			idle := len(sess.mailbox) == 0 && sess.closeReq.Load() == nil && !sess.reap.Load()
			if idle || !sess.scheduled.CompareAndSwap(false, true) {
				// Nothing pending, or a racing enqueue already re-queued
				// the session; either way this service pass is done.
				return
			}
			// Work arrived between the drain and the flag clear and we
			// re-won the slot: keep draining inline.
		}
	}
}

// process executes one envelope on the worker.
func (sh *shard) process(sess *session, env envelope) {
	srv := sh.srv
	req := env.req
	switch req.Op {
	case OpOpen:
		scratch := sh.takeScratch()
		eng, err := buildEngine(req, sim.Options{
			Seed:      req.Seed,
			Collector: srv.metrics,
			Scratch:   scratch,
		})
		if err != nil {
			sh.free = append(sh.free, scratch)
			// Tear down before answering, so a client that sees the
			// rejection also sees the admission slot released.
			srv.answering.Add(1)
			sh.teardown(sess, nil, &srv.closed)
			srv.reject(env.w, req, ReasonBadRequest, err.Error())
			srv.answering.Add(-1)
			return
		}
		sess.eng = eng
		sess.scratch = scratch
		env.w.send(Response{SID: sess.id, Op: OpOpen, OK: true})

	case OpStep:
		srv.stepReqs.Add(1)
		n := req.Steps
		if n < 1 {
			n = 1
		}
		if n > srv.cfg.MaxStepsPerRequest {
			n = srv.cfg.MaxStepsPerRequest
		}
		resp := Response{SID: sess.id, Op: OpStep, OK: true}
		if sess.finished {
			// Stepping past the end returns the terminal outcome, like
			// the engines themselves.
			resp.Done = true
			resp.Result = sess.result
			env.w.send(resp)
			return
		}
		in := sim.StepInput{Messages: req.Msgs, Readings: req.Reads}
		var out sim.StepOutcome
		var err error
		for i := 0; i < n; i++ {
			t0 := time.Now()
			out, err = sess.eng.Step(in)
			srv.stepLatency.Observe(float64(time.Since(t0).Nanoseconds()))
			in = sim.StepInput{}
			srv.steps.Add(1)
			if err != nil || out.Done {
				break
			}
		}
		resp.T, resp.Step = out.T, out.Step
		resp.Accel, resp.Emergency = out.Accel, out.Emergency
		resp.EgoP, resp.EgoV = out.EgoP, out.EgoV
		resp.Done = out.Done
		if err != nil {
			resp.OK = false
			resp.Error = err.Error()
		}
		if out.Done || err != nil {
			sh.settle(sess)
			resp.Result = sess.result
		}
		env.w.send(resp)

	default:
		// Close never lands in the mailbox and open is enqueued exactly
		// once at admission; anything else is a routing bug surfaced to
		// the client rather than silently dropped.
		srv.reject(env.w, req, ReasonBadRequest, fmt.Sprintf("op %q not valid in mailbox", req.Op))
	}
}

// settle finalizes the session's episode exactly once, recording the
// result summary and counting natural terminations.
func (sh *shard) settle(sess *session) {
	if sess.finished || sess.eng == nil {
		return
	}
	r, err := sess.eng.Finish()
	sess.finished = true
	sess.engErr = err
	sess.result = summarize(r)
	sh.srv.finished.Add(1)
}

// teardown retires a session on the worker: deregister, settle the
// episode (a mid-episode close yields the partial result), recycle the
// scratch arena, count the session retired and free its admission slot,
// then answer the close request and flush stragglers with
// ReasonSessionClosed.  Counting comes first, so a client that reads the
// close answer also reads the retirement in Stats; the answering count
// spans the writes, so Shutdown waits for them.  On a session already
// torn down (a failed open, or a close or reap that raced the first
// teardown) it only answers the close with ReasonSessionClosed, so
// nothing is released or counted twice.
func (sh *shard) teardown(sess *session, closeEnv *envelope, counter *atomic.Int64) {
	srv := sh.srv
	srv.answering.Add(1)
	defer srv.answering.Add(-1)
	sess.mu.Lock()
	dead := sess.closed
	sess.closed = true
	sess.mu.Unlock()
	if dead {
		if closeEnv != nil {
			srv.reject(closeEnv.w, closeEnv.req, ReasonSessionClosed, "session closed")
		}
		return
	}
	sh.mu.Lock()
	delete(sh.sessions, sess.id)
	sh.mu.Unlock()

	if sess.eng != nil {
		sh.settle(sess)
	}
	if sess.scratch != nil {
		sh.free = append(sh.free, sess.scratch)
		sess.scratch = nil
	}
	sess.eng = nil
	counter.Add(1)
	srv.live.Add(-1)

	if closeEnv != nil {
		resp := Response{SID: sess.id, Op: OpClose, OK: true, Result: sess.result}
		if sess.engErr != nil {
			resp.Error = sess.engErr.Error()
		}
		closeEnv.w.send(resp)
	}
	// closed is set, so no envelope can land in the mailbox any more.
	for {
		select {
		case env := <-sess.mailbox:
			srv.reject(env.w, env.req, ReasonSessionClosed, "session closed")
		default:
			return
		}
	}
}

func (sh *shard) takeScratch() *sim.Scratch {
	if n := len(sh.free); n > 0 {
		sc := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return sc
	}
	return sim.NewScratch()
}
