// Package wire is the transport internal/serve and internal/dist share, a
// stream of JSON values over TCP: the accept loop with its connection
// registry (Server), a stream decoder with one size limit (Decoder) and
// the round-trip client (Client).  A malformed or over-long request is
// answered bad-request, then the connection closes: after a syntax error
// there is no next value to find (DESIGN.md §13).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxValue bounds the bytes one value takes, counted from the end of the
// previous value (leading space included).  The largest message either
// protocol's own code produces is a few kilobytes.
const MaxValue = 1 << 20

// ErrMalformed classes a value the Decoder rejected: bad syntax, a type
// mismatch, an unknown field, or ErrTooLong, which wraps it.
var (
	ErrMalformed = errors.New("malformed request")
	ErrTooLong   = fmt.Errorf("%w: value longer than %d bytes", ErrMalformed, MaxValue)
)

// Decoder reads a stream of JSON values, disallowing unknown fields, and
// never reads more than MaxValue+1 bytes past the last value's end.
type Decoder struct {
	dec   *json.Decoder
	src   io.Reader
	limit int64
	read  int64 // bytes taken from src
	err   error // src's read error, once it has returned one
}

// NewDecoder returns a Decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{src: r, limit: MaxValue}
	d.dec = json.NewDecoder(budget{d})
	d.dec.DisallowUnknownFields()
	return d
}

// Decode reads the next value into v.  It returns io.EOF at a clean end
// of stream, io.ErrUnexpectedEOF or the source's read error when the
// transport ends mid-value, and an error wrapping ErrMalformed for
// anything else.
func (d *Decoder) Decode(v any) error {
	start := d.dec.InputOffset()
	err := d.dec.Decode(v)
	if err == nil && d.dec.InputOffset()-start <= d.limit {
		return nil
	}
	// Failures go to classify so that Decode's frame, which sits under
	// json's recursion on every new connection's goroutine, stays small:
	// a larger one cost each new connection one more stack growth.
	return d.classify(err, start)
}

// classify sorts a failed Decode into its class.  err == nil is a value
// that completed over the limit: the budget's extra byte, which ends a
// top-level number, lets an object one byte over complete.  A stream
// that ends inside a value is over-long too once what was read of it
// passes the limit (a source may return its last bytes with io.EOF).
func (d *Decoder) classify(err error, start int64) error {
	switch {
	case err == nil || err == ErrTooLong:
		return ErrTooLong
	case err != io.EOF && err != io.ErrUnexpectedEOF && err != d.err:
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	case d.read-start > d.limit:
		return ErrTooLong
	}
	return err
}

// budget is the Decoder's source as json.Decoder sees it: reads stop
// limit+1 bytes past InputOffset, which stays at the last value's end
// while json.Decoder refills, and one more read fails with ErrTooLong.
type budget struct{ d *Decoder }

func (b budget) Read(p []byte) (int, error) {
	d := b.d
	room := d.dec.InputOffset() + d.limit + 1 - d.read
	if room <= 0 {
		return 0, ErrTooLong
	}
	if int64(len(p)) > room {
		p = p[:room]
	}
	n, err := d.src.Read(p)
	d.read += int64(n)
	if err != nil {
		d.err = err
	}
	return n, err
}

// Client is one synchronous protocol connection: one request in flight
// at a time, so responses need no correlation.
type Client[Req, Resp any] struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *Decoder
}

// Dial connects a Client to a TCP address.
func Dial[Req, Resp any](addr string) (*Client[Req, Resp], error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client[Req, Resp]{conn: conn, enc: json.NewEncoder(conn), dec: NewDecoder(conn)}, nil
}

// Do sends req and reads one response.  After an error resp is not
// valid and the connection is suspect; the caller closes it.
func (c *Client[Req, Resp]) Do(req Req) (resp Resp, err error) {
	if err = c.enc.Encode(req); err == nil {
		err = c.dec.Decode(&resp)
	}
	return resp, err
}

// Close closes the connection.
func (c *Client[Req, Resp]) Close() error { return c.conn.Close() }

// Server is the accept loop and connection registry of a protocol
// server: one handler goroutine per accepted connection.
type Server struct {
	mu    sync.Mutex
	lns   map[net.Listener]struct{}
	conns map[net.Conn]struct{} // nil once closed
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewServer returns an open Server.
func NewServer() *Server {
	return &Server{
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Done is closed when Close starts.
func (s *Server) Done() <-chan struct{} { return s.done }

// Serve accepts connections on ln until Close and runs handle on each in
// its own goroutine, closing the connection when handle returns.  It
// returns nil after Close, or the first accept error.
func (s *Server) Serve(ln net.Listener, handle func(net.Conn)) error {
	s.mu.Lock()
	if s.conns == nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every connection and waits for their
// handlers to return.  Later calls return at once.
func (s *Server) Close() {
	s.mu.Lock()
	lns, conns := s.lns, s.conns
	if conns == nil {
		s.mu.Unlock()
		return
	}
	s.conns = nil
	close(s.done)
	s.mu.Unlock()
	for ln := range lns {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
