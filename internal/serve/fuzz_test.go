package serve

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

// fuzzDeadline bounds every wait in FuzzServeProtocol, so a server that
// neither answers nor hangs up fails the input instead of hanging the
// fuzzer.
const fuzzDeadline = 5 * time.Second

// FuzzServeProtocol feeds arbitrary bytes to one session-protocol
// connection and checks the wire contract: the server never panics; a
// malformed request (anything the standard JSON decoder rejects other than
// an unfinished final line) is answered with a bad-request rejection before
// the connection drops; on well-formed input every request gets exactly
// one response and none is a malformed-request rejection; and every
// session the input opened is released once closed, so the live-session
// gauge reads 0 after Close.  The input is terminated with a newline, as
// every line of the protocol is, so the server can finish decoding a
// trailing scalar without waiting for end of stream.
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

// decodeRequests replays the server's stream decoding of data with the
// standard decoder: the requests decoded before the first error, and
// whether that error is a malformed request rather than the end of the
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

// feedConn writes data to a fresh server connection over net.Pipe while a
// second goroutine drains the responses.  With want >= 0 the client hangs
// up once exactly want responses have arrived; with want < 0 the server is
// expected to hang up on a malformed request, and the client end stays
// open until it does, so the rejection can be read.  feedConn returns once
// the server has finished with the connection, with every response read
// before the hang-up.
func feedConn(t *testing.T, srv *Server, data []byte, want int) []Response {
	t.Helper()
	client, server := net.Pipe()
	handled := make(chan struct{})
	srv.mu.Lock()
	srv.conns[server] = struct{}{} // so Close hangs up on a stuck connection
	srv.mu.Unlock()
	srv.wg.Add(1)
	go func() {
		srv.handleConn(server)
		close(handled)
	}()
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
	wait(handled, "server neither rejected the malformed request nor hung up")
	client.Close()
	<-drained
	mu.Lock()
	defer mu.Unlock()
	if want >= 0 && len(resps) != want {
		t.Fatalf("%d responses to %d requests: %+v", len(resps), want, resps)
	}
	return resps
}
