package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"safeplan/internal/wire"
)

// Server exposes a Coordinator over TCP (internal/wire): one Request in,
// one Response out, strictly in order per connection.  It also runs the
// lease-expiry sweeper (the coordinator itself is passive) and serves
// /metrics + /healthz as an http.Handler.
type Server struct {
	coord *Coordinator
	conns *wire.Server
	wg    sync.WaitGroup
}

// NewServer wraps a coordinator and starts its lease sweeper.  Call
// Close to release it.
func NewServer(coord *Coordinator) *Server {
	s := &Server{coord: coord, conns: wire.NewServer()}
	s.wg.Add(1)
	go s.sweeper()
	return s
}

// sweeper expires overdue leases on a quarter-TTL cadence so a crashed
// worker's shard returns to the pool even when no other worker happens
// to poke the coordinator.
func (s *Server) sweeper() {
	defer s.wg.Done()
	period := s.coord.cfg.LeaseTTL / 4
	if period <= 0 {
		period = time.Second
	}
	for {
		select {
		case <-s.conns.Done():
			return
		case <-s.coord.Done():
			return
		case <-s.coord.clock.After(period):
			s.coord.ExpireLeases()
		}
	}
}

// ListenAndServe listens on addr and serves the worker protocol until
// Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts worker connections on ln until Close.  It returns nil
// after Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error { return s.conns.Serve(ln, s.handleConn) }

// Close stops accepting, drops every connection, stops the sweeper, and
// waits for all server goroutines to exit.  The coordinator's state —
// accepted shards, checkpoint file — is untouched.
func (s *Server) Close() error {
	s.conns.Close()
	s.wg.Wait()
	return nil
}

// handleConn decodes one Request at a time and answers through the
// coordinator.  A malformed or over-long request gets a bad-request
// response; it or a read error ends the connection (the worker's leases
// survive until they expire — connections carry requests, not ownership).
func (s *Server) handleConn(conn net.Conn) {
	enc := json.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				enc.Encode(Response{OK: false, Reason: ReasonBadRequest, Error: err.Error()})
			}
			return
		}
		if err := enc.Encode(s.coord.Dispatch(req)); err != nil {
			return
		}
	}
}

// ServeHTTP exposes /healthz (liveness; 503 once draining or done, so
// orchestrators stop routing new workers here) and /metrics (the
// coordinator's fault-tolerance counters).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		ctr := s.coord.Counters()
		if ctr.Draining || ctr.Complete || s.coord.Failed() != nil {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case "/metrics":
		payload := struct {
			Campaign CampaignInfo `json:"campaign"`
			Counters Counters     `json:"counters"`
			Error    string       `json:"error,omitempty"`
		}{Campaign: s.coord.Info(), Counters: s.coord.Counters()}
		if err := s.coord.Failed(); err != nil {
			payload.Error = err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	default:
		http.NotFound(w, r)
	}
}
