package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"safeplan/internal/wire"
)

// fuzzDeadline bounds every wait in FuzzServeProtocol, so a server that
// neither answers nor hangs up fails the input instead of hanging the
// fuzzer.
const fuzzDeadline = 5 * time.Second

// FuzzServeProtocol feeds arbitrary bytes to one session-protocol
// connection and checks the wire contract: the server never panics; a
// malformed request (anything the standard JSON decoder rejects other than
// an unfinished final value, and any value longer than wire.MaxValue) is
// answered with a bad-request rejection before the connection drops; on
// well-formed input every request gets exactly one response and none is
// a malformed-request rejection; and every session the input opened is
// released once closed, so the live-session gauge reads 0 after Close.
// The input is terminated with a newline, as every line of the protocol
// is, so the server can finish decoding a trailing scalar without waiting
// for end of stream.  The committed corpus
// (testdata/fuzz/FuzzServeProtocol) includes an unterminated over-long
// request and a request exactly at the limit.
func FuzzServeProtocol(f *testing.F) {
	f.Add([]byte(`{"op":"ping"}`))
	f.Add([]byte(`{"op":"open","sid":"a","seed":3}` + "\n" + `{"op":"step","sid":"a","steps":40}` + "\n" + `{"op":"close","sid":"a"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(bytes.Clone(data), '\n')
		reqs, malformed := decodeRequests(data)

		srv, err := New(Config{Shards: 2, MaxSessions: 4, Mailbox: 2, MaxStepsPerRequest: 50})
		if err != nil {
			t.Fatal(err)
		}
		// No deferred Close: after a failed wait a shard worker may be
		// stuck, and Close would wait for it forever instead of reporting.

		want := len(reqs)
		if malformed {
			want = -1 // the server hangs up; later replies may be lost
		}
		resps := feedConn(t, srv, data, want)
		rejected := false
		for _, r := range resps {
			if !r.OK && r.Reason == ReasonBadRequest && strings.HasPrefix(r.Error, "malformed request") {
				rejected = true
			}
		}
		if rejected != malformed {
			t.Fatalf("malformed input %v, bad-request rejection sent %v; responses %+v", malformed, rejected, resps)
		}

		// Close every session the input may have opened, as a client
		// would, then wait for the server to release them.
		var closes bytes.Buffer
		enc := json.NewEncoder(&closes)
		n := 0
		for _, r := range reqs {
			if r.Op == OpOpen && r.SID != "" {
				enc.Encode(Request{Op: OpClose, SID: r.SID})
				n++
			}
		}
		feedConn(t, srv, closes.Bytes(), n)
		for end := time.Now().Add(fuzzDeadline); srv.Stats().LiveSessions != 0; {
			if time.Now().After(end) {
				t.Fatalf("%d sessions still live after closing every opened SID", srv.Stats().LiveSessions)
			}
			time.Sleep(time.Millisecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if n := srv.Stats().LiveSessions; n != 0 {
			t.Fatalf("%d sessions live after Close", n)
		}
	})
}

// TestOverlongRequest writes 64 MiB of one unterminated request to a
// default server.  The server must answer bad-request, hang up, and
// allocate no more than a small multiple of wire.MaxValue doing so; a
// decoder with no limit buffers the whole 64 MiB.
func TestOverlongRequest(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	client.SetDeadline(time.Now().Add(30 * time.Second))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	go srv.Serve(newPipeListener(server))
	go func() {
		client.Write([]byte(`{"op":"ping","sid":"`))
		chunk := bytes.Repeat([]byte("a"), 64<<10)
		for i := 0; i < 1024; i++ {
			if _, err := client.Write(chunk); err != nil {
				return // the server hung up
			}
		}
	}()
	dec := json.NewDecoder(client)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no answer to the over-long request: %v", err)
	}
	runtime.ReadMemStats(&after)
	if resp.OK || resp.Reason != ReasonBadRequest || !strings.HasPrefix(resp.Error, "malformed request") {
		t.Fatalf("over-long request answered %+v, want a malformed-request rejection", resp)
	}
	if err := dec.Decode(&resp); err != io.EOF {
		t.Fatalf("connection still open after the rejection: read %+v, %v", resp, err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MiB while rejecting", float64(grew)/(1<<20))
	if grew > 16*wire.MaxValue {
		t.Fatalf("allocated %d bytes rejecting one request, limit %d", grew, wire.MaxValue)
	}
}

// decodeRequests replays the server's stream decoding of data with the
// standard decoder: the requests decoded before the first error, and
// whether that error is a malformed request rather than the end of the
// stream (a clean end or an unfinished final value).  One rule is the
// wire layer's own: a value longer than wire.MaxValue, counted from the
// end of the previous value to its end (or to the end of the data, for
// an unfinished one), is malformed.
func decodeRequests(data []byte) (reqs []Request, malformed bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	for {
		start := dec.InputOffset()
		var req Request
		err := dec.Decode(&req)
		end := dec.InputOffset()
		if err != nil {
			end = int64(len(data))
		}
		if end-start > wire.MaxValue {
			return reqs, true
		}
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
// want < 0 the server is expected to hang up on a malformed request, and
// the client end stays open until it does, so the rejection can be read.
// feedConn returns the responses read before the hang-up; srv.Close
// waits for the connection's handler.
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
	wait(drained, "server neither rejected the malformed request nor hung up")
	client.Close()
	mu.Lock()
	defer mu.Unlock()
	if want >= 0 && len(resps) != want {
		t.Fatalf("%d responses to %d requests: %+v", len(resps), want, resps)
	}
	return resps
}
