package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fuzzDeadline bounds every wait in FuzzDistProtocol, so a server that
// neither answers nor hangs up fails the input instead of hanging the
// fuzzer.
const fuzzDeadline = 5 * time.Second

// knownReasons are the machine-readable rejection classes of the worker
// protocol.
var knownReasons = map[string]bool{
	ReasonBadRequest: true, ReasonLeaseLost: true,
	ReasonBadSum: true, ReasonStatsMismatch: true, ReasonFingerprint: true,
}

// FuzzDistProtocol feeds arbitrary bytes to one campaignd worker-protocol
// connection, against a fresh coordinator of a four-shard synthetic
// campaign, and checks the wire contract: the server never panics; a
// malformed or wrong-typed line (anything the standard JSON decoder
// rejects other than an unfinished final line) is answered with a
// bad-request rejection before the connection drops; every well-formed
// request before it gets exactly one response; and every rejection
// carries a known reason.  The input is terminated with a newline, as
// every line of the protocol is.  The committed corpus
// (testdata/fuzz/FuzzDistProtocol) runs hello, lease, renew and result in
// and out of order, duplicate and corrupted results, a fingerprint
// mismatch and malformed lines.
func FuzzDistProtocol(f *testing.F) {
	spec, workload := synthSpec("fuzz", 40, 4)
	f.Add([]byte(`{"op":"hello","worker":"w"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(bytes.Clone(data), '\n')
		reqs, malformed := decodeRequests(data)

		c, err := NewCoordinator(Config{Spec: spec, Workload: workload, Clock: NewFakeClock(time.Unix(0, 0))})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(c)
		want := len(reqs)
		if malformed {
			want = -1 // the server hangs up after the rejection
		}
		resps := feedConn(t, srv, data, want)
		rejected := false
		for _, r := range resps {
			if r.OK {
				continue
			}
			if !knownReasons[r.Reason] {
				t.Fatalf("rejection with unknown reason %q: %+v", r.Reason, r)
			}
			if r.Reason == ReasonBadRequest && strings.HasPrefix(r.Error, "malformed request") {
				rejected = true
			}
		}
		if rejected != malformed {
			t.Fatalf("malformed input %v, bad-request rejection sent %v; responses %+v", malformed, rejected, resps)
		}
		if malformed && len(resps) != len(reqs)+1 {
			t.Fatalf("%d responses to %d well-formed requests and one malformed line: %+v", len(resps), len(reqs), resps)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeRequests replays the server's stream decoding of data with the
// standard decoder: the requests decoded before the first error, and
// whether that error is a malformed line rather than the end of the
// stream (a clean end or an unfinished final value).
func decodeRequests(data []byte) (reqs []Request, malformed bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	for {
		var req Request
		err := dec.Decode(&req)
		if err == nil {
			reqs = append(reqs, req)
			continue
		}
		return reqs, !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
	}
}

// pipeListener hands Server.Serve one end of a net.Pipe and then blocks
// in Accept until it is closed, so each fuzz input runs Serve's own
// accept path without taking a TCP port.
type pipeListener struct {
	conn chan net.Conn
	addr net.Addr
	done chan struct{}
	once sync.Once
}

func newPipeListener(conn net.Conn) *pipeListener {
	l := &pipeListener{conn: make(chan net.Conn, 1), addr: conn.LocalAddr(), done: make(chan struct{})}
	l.conn <- conn
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// feedConn serves one net.Pipe connection through srv.Serve, writes data
// to it and drains the responses in a second goroutine.  With want >= 0
// the client hangs up once exactly want responses have arrived; with
// want < 0 the server is expected to hang up on a malformed line, and the
// client end stays open until it does, so the rejection can be read.
// feedConn returns the responses read before the hang-up; the caller's
// srv.Close waits for the connection's handler.
func feedConn(t *testing.T, srv *Server, data []byte, want int) []Response {
	t.Helper()
	client, server := net.Pipe()
	go srv.Serve(newPipeListener(server))
	var (
		mu    sync.Mutex
		resps []Response
	)
	drained := make(chan struct{})
	answered := make(chan struct{})
	go func() {
		defer close(drained)
		dec := json.NewDecoder(client)
		for {
			var r Response
			if dec.Decode(&r) != nil {
				io.Copy(io.Discard, client) // never leave the server blocked on a write
				return
			}
			mu.Lock()
			resps = append(resps, r)
			if len(resps) == want {
				close(answered)
			}
			mu.Unlock()
		}
	}()
	if want == 0 {
		close(answered)
	}
	client.Write(data) // fails only once the server has hung up
	wait := func(c <-chan struct{}, what string) {
		select {
		case <-c:
		case <-time.After(fuzzDeadline):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("%s; %d responses: %+v", what, len(resps), resps)
		}
	}
	if want >= 0 {
		wait(answered, "a request went unanswered")
		client.Close()
	}
	wait(drained, "server neither rejected the malformed line nor hung up")
	client.Close()
	mu.Lock()
	defer mu.Unlock()
	if want >= 0 && len(resps) != want {
		t.Fatalf("%d responses to %d requests: %+v", len(resps), want, resps)
	}
	return resps
}
