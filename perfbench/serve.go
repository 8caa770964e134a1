package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/serve"
	"safeplan/internal/sim"
)

// Serve probe parameters.  Every traced run measures the serve layer with
// probeVehicles live sessions over fleetConns connections to an
// in-process server: first open loop, one 1-step request per vehicle
// every controlPeriod (the paper's control rate), then closed loop.
const (
	probeVehicles = 96
	controlPeriod = 50 * time.Millisecond
	// phaseSlot quantizes the vehicles' fixed phase offsets: every slot's
	// vehicles are due together, so the generator wakes once per slot.
	phaseSlot = time.Millisecond
	// fleetConns is the number of client connections.
	fleetConns = 2
	// closedWindow is the closed loop's outstanding requests per
	// connection.
	closedWindow = 32
	// verifySample bounds how many finished sessions are replayed
	// directly for the correctness check.
	verifySample = 30
)

// sessionParams is one session's open request content.
type sessionParams struct {
	scenario, planner, disturb string
	seed                       int64
}

// vehicleParams fixes vehicle i's session mix: scenario by i mod 3,
// planner by (i/3) mod 2, the burst preset on every fourth vehicle.
// Episode k of the vehicle opens with its own seed.
func vehicleParams(seed int64, i, k int) sessionParams {
	p := sessionParams{
		scenario: []string{serve.ScenarioLeftTurn, serve.ScenarioMulti, serve.ScenarioCarFollow}[i%3],
		planner:  []string{serve.PlannerConservative, serve.PlannerAggressive}[(i/3)%2],
		seed:     baseSeed(seed, 200) + int64(i)*1000 + int64(k),
	}
	if i%4 == 3 {
		p.disturb = "burst"
	}
	return p
}

// vehicle is one simulated car: a fixed phase and a chain of sessions.
type vehicle struct {
	idx   int
	phase time.Duration
	conn  *fleetConn

	// Guarded by conn.mu.
	k        int
	sid      string
	params   sessionParams
	due      []time.Time // outstanding step requests, oldest first
	openSent time.Time
	opening  bool
}

// finishedSession is a session whose episode ended, kept for the
// direct-replay check.
type finishedSession struct {
	params sessionParams
	sum    serve.ResultSummary
}

// phaseStats collects one phase's client-side observations.
type phaseStats struct {
	start  time.Time
	closed bool // closed loop: completions re-arm their vehicle

	mu        sync.Mutex
	latUs     []float64 // step latency from due time
	lagUs     []float64 // generator lateness against due time
	attempted int64
	rejected  int64
}

// fleetConn is one client connection with its vehicles.
type fleetConn struct {
	f   *fleet
	c   net.Conn
	wmu sync.Mutex
	w   *bufio.Writer

	mu       sync.Mutex
	bySID    map[string]*vehicle
	vehicles []*vehicle
	ready    chan *vehicle
	readDone chan struct{}
}

// fleet is the serve probe's client: n vehicles over fleetConns
// connections to one in-process server.
type fleet struct {
	seed  int64
	conns []*fleetConn
	tr    *tracer // nil when untraced
	cur   atomic.Pointer[phaseStats]

	mu       sync.Mutex
	finished []finishedSession
	failures []string
	stale    int64
	openUs   []float64 // open round trips, first sessions and reopens
}

func (f *fleet) failf(format string, args ...any) {
	f.mu.Lock()
	f.failures = append(f.failures, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

// startServer starts a serve.Server on loopback with one shard per
// processor; stop closes it and waits for its accept loop.
func startServer() (*serve.Server, string, func(), error) {
	srv, err := serve.New(serve.Config{Shards: workers()})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns nil once stop closes the server
	}()
	return srv, ln.Addr().String(), func() { srv.Close(); <-served }, nil
}

// dialFleet connects the client and starts one reader per connection.
func dialFleet(addr string, seed int64, n int, tr *tracer) (*fleet, error) {
	f := &fleet{seed: seed, tr: tr}
	f.cur.Store(&phaseStats{start: time.Now()})
	for c := 0; c < fleetConns; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			f.close()
			return nil, err
		}
		fc := &fleetConn{f: f, c: conn, w: bufio.NewWriter(conn), bySID: map[string]*vehicle{},
			ready: make(chan *vehicle, n), readDone: make(chan struct{})}
		go fc.read()
		f.conns = append(f.conns, fc)
	}
	slots := int(controlPeriod / phaseSlot)
	for i := 0; i < n; i++ {
		fc := f.conns[i%fleetConns]
		v := &vehicle{idx: i, phase: time.Duration(i%slots) * phaseSlot, conn: fc}
		fc.vehicles = append(fc.vehicles, v)
	}
	return f, nil
}

// close drops the connections and waits for the readers.
func (f *fleet) close() {
	for _, fc := range f.conns {
		fc.c.Close()
		<-fc.readDone
	}
}

// send writes request lines and flushes them.
func (fc *fleetConn) send(lines ...[]byte) {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	for _, l := range lines {
		fc.w.Write(l)
	}
	if err := fc.w.Flush(); err != nil {
		fc.f.failf("write: %v", err)
	}
}

func stepLine(sid string) []byte {
	return []byte(`{"op":"step","sid":` + strconv.Quote(sid) + "}\n")
}

func closeLine(sid string) []byte {
	return []byte(`{"op":"close","sid":` + strconv.Quote(sid) + "}\n")
}

func openLine(sid string, p sessionParams) []byte {
	raw, err := json.Marshal(serve.Request{Op: serve.OpOpen, SID: sid, Scenario: p.scenario,
		Planner: p.planner, Design: serve.DesignUltimate, Seed: p.seed, Disturb: p.disturb})
	if err != nil {
		panic(err) // a Request of strings and integers always marshals
	}
	return append(raw, '\n')
}

// nextSession moves v to its next episode's session and returns the open
// line.  Caller holds v.conn.mu.
func (v *vehicle) nextSession(now time.Time) []byte {
	if v.sid != "" {
		delete(v.conn.bySID, v.sid)
		v.k++
	}
	v.sid = fmt.Sprintf("v%d.%d", v.idx, v.k)
	v.params = vehicleParams(v.conn.f.seed, v.idx, v.k)
	v.conn.bySID[v.sid] = v
	v.due = v.due[:0]
	v.openSent, v.opening = now, true
	return openLine(v.sid, v.params)
}

// openAll opens every vehicle's first session and waits for the acks.
func (f *fleet) openAll(timeout time.Duration) error {
	for _, fc := range f.conns {
		var lines [][]byte
		now := time.Now()
		fc.mu.Lock()
		for _, v := range fc.vehicles {
			lines = append(lines, v.nextSession(now))
		}
		fc.mu.Unlock()
		fc.send(lines...)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.opening() == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%d sessions still opening after %s", f.opening(), timeout)
}

func (f *fleet) opening() int {
	n := 0
	for _, fc := range f.conns {
		fc.mu.Lock()
		for _, v := range fc.vehicles {
			if v.opening {
				n++
			}
		}
		fc.mu.Unlock()
	}
	return n
}

// outstanding counts step requests not yet answered.
func (f *fleet) outstanding() int {
	n := 0
	for _, fc := range f.conns {
		fc.mu.Lock()
		for _, v := range fc.vehicles {
			n += len(v.due)
		}
		fc.mu.Unlock()
	}
	return n
}

// drain waits until every step request is answered.
func (f *fleet) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.outstanding() > 0 || f.opening() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d step requests unanswered after %s", f.outstanding(), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// read matches responses to vehicles by SID.
func (fc *fleetConn) read() {
	defer close(fc.readDone)
	dec := json.NewDecoder(bufio.NewReader(fc.c))
	f := fc.f
	for {
		var resp serve.Response
		if err := dec.Decode(&resp); err != nil {
			return // connection closed
		}
		now := time.Now()
		ps := f.cur.Load()
		var out [][]byte
		var rearm *vehicle
		fc.mu.Lock()
		v := fc.bySID[resp.SID]
		switch {
		case v == nil:
			f.mu.Lock()
			f.stale++
			f.mu.Unlock()
		case resp.Op == serve.OpOpen:
			if !resp.OK {
				f.failf("open %s: %s (%s)", resp.SID, resp.Error, resp.Reason)
			}
			if v.opening {
				v.opening = false
				f.mu.Lock()
				f.openUs = append(f.openUs, float64(now.Sub(v.openSent).Nanoseconds())/1e3)
				f.mu.Unlock()
				f.tr.record(0, "serve.open", v.openSent, now.Sub(v.openSent), 1)
			}
		case resp.Op == serve.OpStep:
			if len(v.due) == 0 {
				f.failf("step response for %s with nothing outstanding", resp.SID)
				break
			}
			due := v.due[0]
			v.due = v.due[1:]
			ps.mu.Lock()
			if resp.OK {
				ps.latUs = append(ps.latUs, float64(now.Sub(due).Nanoseconds())/1e3)
			} else {
				ps.rejected++
			}
			ps.mu.Unlock()
			f.tr.record(0, "serve.step", due, now.Sub(due), 1)
			if !resp.OK {
				f.failf("step %s: %s (%s)", resp.SID, resp.Error, resp.Reason)
			}
			if resp.Done && resp.Result != nil {
				f.mu.Lock()
				if len(f.finished) < 4*verifySample {
					f.finished = append(f.finished, finishedSession{v.params, *resp.Result})
				}
				f.mu.Unlock()
				out = append(out, closeLine(v.sid), v.nextSession(now))
			}
			if ps.closed {
				rearm = v
			}
		case resp.Op == serve.OpClose:
			if !resp.OK {
				f.failf("close %s: %s (%s)", resp.SID, resp.Error, resp.Reason)
			}
		}
		fc.mu.Unlock()
		if len(out) > 0 {
			fc.send(out...)
		}
		if rearm != nil {
			fc.ready <- rearm
		}
	}
}

// openLoop sends each vehicle's step at its phase every control period
// for d.  A vehicle whose previous step is still unanswered skips the
// slot.  One generator goroutine serves every connection.  The runtime's
// timers wake it up to a millisecond late; that lateness is part of
// every latency (timed from the due time) and is reported as
// serve.generator_lag_us.
func (f *fleet) openLoop(d time.Duration) *phaseStats {
	ps := &phaseStats{start: time.Now()}
	f.cur.Store(ps)
	end := ps.start.Add(d)
	var order []*vehicle
	for _, fc := range f.conns {
		order = append(order, fc.vehicles...)
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].phase < order[b].phase })
	lines := make([][][]byte, len(f.conns))
	for cycle := 0; ; cycle++ {
		base := ps.start.Add(time.Duration(cycle) * controlPeriod)
		for i := 0; i < len(order); {
			slot := order[i].phase
			due := base.Add(slot)
			if !due.Before(end) {
				return ps
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			// Every vehicle of this slot is due now.
			now := time.Now()
			var attempted int64
			var lag []float64
			for ; i < len(order) && order[i].phase == slot; i++ {
				v := order[i]
				v.conn.mu.Lock()
				busy := len(v.due) > 0
				if !busy {
					v.due = append(v.due, due)
				}
				sid := v.sid
				v.conn.mu.Unlock()
				if busy {
					continue
				}
				attempted++
				c := v.idx % fleetConns
				lines[c] = append(lines[c], stepLine(sid))
				lag = append(lag, float64(now.Sub(due).Nanoseconds())/1e3)
			}
			for c, fc := range f.conns {
				if len(lines[c]) > 0 {
					fc.send(lines[c]...)
					lines[c] = lines[c][:0]
				}
			}
			ps.mu.Lock()
			ps.attempted += attempted
			ps.lagUs = append(ps.lagUs, lag...)
			ps.mu.Unlock()
		}
	}
}

// closedLoop keeps closedWindow requests outstanding per connection for
// d: each completion sends that vehicle's next step.
func (f *fleet) closedLoop(d time.Duration) *phaseStats {
	ps := &phaseStats{start: time.Now(), closed: true}
	f.cur.Store(ps)
	end := ps.start.Add(d)
	var wg sync.WaitGroup
	for _, fc := range f.conns {
		for i := 0; i < closedWindow && i < len(fc.vehicles); i++ {
			fc.ready <- fc.vehicles[i]
		}
		wg.Add(1)
		go func(fc *fleetConn) {
			defer wg.Done()
			timer := time.NewTimer(time.Until(end))
			defer timer.Stop()
			for {
				select {
				case <-timer.C:
					return
				case v := <-fc.ready:
					now := time.Now()
					fc.mu.Lock()
					v.due = append(v.due, now)
					line := stepLine(v.sid)
					fc.mu.Unlock()
					fc.send(line)
					ps.mu.Lock()
					ps.attempted++
					ps.mu.Unlock()
				}
			}
		}(fc)
	}
	wg.Wait()
	// Stop re-arming, then empty the ready queues.
	f.cur.Store(&phaseStats{start: time.Now()})
	for _, fc := range f.conns {
		for len(fc.ready) > 0 {
			<-fc.ready
		}
	}
	return ps
}

// verify replays a sample of finished sessions directly through the
// scenario engines (the same configuration construction as the server's
// open handler) and compares the summaries field by field.  Every
// mismatch is a correctness failure.
func (f *fleet) verify(o *outcome) {
	f.mu.Lock()
	fin := append([]finishedSession(nil), f.finished...)
	f.mu.Unlock()
	// Spread the sample over the vehicle mix: take every kth.
	step := max(len(fin)/verifySample, 1)
	checked := 0
	for i := 0; i < len(fin) && checked < verifySample; i += step {
		fs := fin[i]
		checked++
		o.attempted++
		r, err := replaySession(fs.params)
		if err != nil {
			o.fail(1, "replay %+v: %v", fs.params, err)
			continue
		}
		want := serve.ResultSummary{
			Reached: r.Reached, ReachTime: r.ReachTime, Collided: r.Collided, Eta: r.Eta,
			Steps: r.Steps, EmergencySteps: r.EmergencySteps,
			FusedIntervalMisses: r.FusedIntervalMisses, SoundViolations: r.SoundViolations,
		}
		if want != fs.sum {
			o.fail(1, "session %+v: served %+v, direct replay %+v", fs.params, fs.sum, want)
		}
	}
	for _, fs := range fin {
		if fs.sum.Collided || fs.sum.SoundViolations > 0 {
			o.fail(1, "session %+v: collided %v, %d sound violations", fs.params, fs.sum.Collided, fs.sum.SoundViolations)
		}
	}
	o.details["serve.sessions_finished_seen"] = len(fin)
	o.details["serve.sessions_replayed"] = checked
}

// replaySession runs one session's episode through its engine directly:
// ultimate design, expert planner, the optional comms preset.
func replaySession(p sessionParams) (sim.Result, error) {
	var model disturb.Model
	if p.disturb != "" {
		m, err := disturb.Preset(p.disturb)
		if err != nil {
			return sim.Result{}, err
		}
		model = m
	}
	opts := sim.Options{Seed: p.seed}
	switch p.scenario {
	case serve.ScenarioLeftTurn:
		cfg := sim.DefaultConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = true
		return sim.Run(cfg, core.NewUltimate(cfg.Scenario, leftTurnExpert(p.planner, cfg)), opts)
	case serve.ScenarioMulti:
		cfg := sim.DefaultMultiConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = true
		return sim.RunMulti(cfg, core.NewMultiUltimate(cfg.Scenario, leftTurnExpert(p.planner, cfg.Config)), opts)
	case serve.ScenarioCarFollow:
		cfg := carfollow.DefaultSimConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = true
		kn := carfollow.Planner(carfollow.ConservativeExpert(cfg.Scenario))
		if p.planner == serve.PlannerAggressive {
			kn = carfollow.AggressiveExpert(cfg.Scenario)
		}
		return carfollow.RunEpisode(cfg, carfollow.NewUltimate(cfg.Scenario, kn), opts)
	}
	return sim.Result{}, fmt.Errorf("unknown scenario %q", p.scenario)
}

func leftTurnExpert(kind string, cfg sim.Config) planner.Planner {
	if kind == serve.PlannerAggressive {
		return planner.AggressiveExpert(cfg.Scenario)
	}
	return planner.ConservativeExpert(cfg.Scenario)
}

// fleetRun is what the serve layer metrics read from a probe run.
type fleetRun struct {
	srv    *serve.Server
	open   *phaseStats
	openUs []float64
}

// runFleet drives n vehicles open loop for openD, then closed loop for
// closedD, and verifies the finished sessions before closing everything.
func runFleet(o *outcome, seed int64, n int, openD, closedD time.Duration, tr *tracer) (*fleetRun, error) {
	srv, addr, stop, err := startServer()
	if err != nil {
		return nil, err
	}
	defer stop()
	f, err := dialFleet(addr, seed, n, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := f.openAll(30 * time.Second); err != nil {
		return nil, err
	}
	fr := &fleetRun{srv: srv, open: f.openLoop(openD)}
	if err := f.drain(10 * time.Second); err != nil {
		return nil, err
	}
	closed := f.closedLoop(closedD)
	if err := f.drain(10 * time.Second); err != nil {
		return nil, err
	}
	for _, ps := range []*phaseStats{fr.open, closed} {
		o.attempted += ps.attempted
		if ps.rejected > 0 {
			o.fail(ps.rejected, "%d step requests rejected", ps.rejected)
		}
	}
	f.mu.Lock()
	failures := f.failures
	fr.openUs = f.openUs
	o.details["serve.stale_responses"] = f.stale
	f.mu.Unlock()
	if len(failures) > 0 {
		o.fail(int64(len(failures)), "%d protocol failures, first: %s", len(failures), failures[0])
	}
	f.verify(o)
	return fr, nil
}

// serveLayers records the serve layer metrics of a fleet run.
func serveLayers(o *outcome, fr *fleetRun) {
	st := fr.srv.Stats()
	engP50 := st.StepLatencyNs.Quantile(0.5) / 1e3
	o.layer("serve.open_us", median(fr.openUs), int64(len(fr.openUs)))
	o.layer("serve.engine_step_p50_us", engP50, st.StepLatencyNs.Count)
	o.layer("serve.engine_step_p99_us", st.StepLatencyNs.Quantile(0.99)/1e3, st.StepLatencyNs.Count)
	o.layer("serve.overhead_us", median(fr.open.latUs)-engP50, int64(len(fr.open.latUs)))
	o.layer("serve.backpressure_rejects", float64(st.Rejections[serve.ReasonBackpressure]), st.StepRequests)
	o.layer("serve.generator_lag_us", median(fr.open.lagUs), int64(len(fr.open.lagUs)))
}

// serveProbe measures the serve layer in every traced run: a small fleet
// through both phases, with a span per request.
func serveProbe(rc runConfig, o *outcome) error {
	fr, err := runFleet(o, rc.seed, probeVehicles, rc.budget(0.1), rc.budget(0.05), rc.tr)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	serveLayers(o, fr)
	return nil
}
