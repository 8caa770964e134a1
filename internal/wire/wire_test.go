package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// msg is the differential tests' decode target: enough field kinds for
// type mismatches and unknown fields to arise.
type msg struct {
	Op  string    `json:"op"`
	N   int       `json:"n"`
	Xs  []float64 `json:"xs"`
	Sub *struct {
		A bool `json:"a"`
	} `json:"sub"`
}

// outcome is what decoding a whole stream yields: each value re-encoded,
// then the error that ended the stream and its class.
type outcome struct {
	vals      []string
	err       error
	malformed bool
}

// reference decodes data with a bare json.Decoder and
// DisallowUnknownFields, plus the one rule the bounded decoder adds: a
// value longer than limit, counted from the end of the previous value to
// its end (or to the end of the data, for an unfinished one), is
// malformed.
func reference(data []byte, limit int64) outcome {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out outcome
	for {
		start := dec.InputOffset()
		var m msg
		err := dec.Decode(&m)
		end := dec.InputOffset()
		if err != nil {
			end = int64(len(data))
		}
		if end-start > limit {
			out.err, out.malformed = ErrTooLong, true
			return out
		}
		if err != nil {
			out.err = err
			out.malformed = err != io.EOF && err != io.ErrUnexpectedEOF
			return out
		}
		raw, _ := json.Marshal(m)
		out.vals = append(out.vals, string(raw))
	}
}

func bounded(r io.Reader, limit int64) outcome {
	dec := NewDecoder(r)
	dec.limit = limit
	var out outcome
	for {
		var m msg
		err := dec.Decode(&m)
		if err != nil {
			out.err, out.malformed = err, errors.Is(err, ErrMalformed)
			return out
		}
		raw, _ := json.Marshal(m)
		out.vals = append(out.vals, string(raw))
	}
}

// checkDifferential decodes data through the bounded decoder under
// several read splits and compares each run with the reference: the same
// values, the same error class, and for a transport end or a malformed
// value within the limit the same error text.
func checkDifferential(t *testing.T, data []byte, limit int64) {
	t.Helper()
	want := reference(data, limit)
	if want.malformed && want.err != ErrTooLong {
		want.err = fmt.Errorf("%w: %w", ErrMalformed, want.err)
	}
	readers := map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(data) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
	}
	for name, r := range readers {
		got := bounded(r(), limit)
		if strings.Join(got.vals, "\n") != strings.Join(want.vals, "\n") {
			t.Fatalf("%s, limit %d, input %q: values %q, want %q", name, limit, data, got.vals, want.vals)
		}
		if got.malformed != want.malformed {
			t.Fatalf("%s, limit %d, input %q: error %v (malformed %v), want %v (malformed %v)",
				name, limit, data, got.err, got.malformed, want.err, want.malformed)
		}
		if want.err != ErrTooLong && got.err != ErrTooLong && got.err.Error() != want.err.Error() {
			t.Fatalf("%s, limit %d, input %q: error %q, want %q", name, limit, data, got.err, want.err)
		}
	}
}

var differentialInputs = []string{
	``,
	"  \n\t",
	`{"op":"a"}`,
	`{"op":"a"}` + "\n" + `{"op":"b","n":2}` + "\n",
	`{"op":"a"}{"op":"b"}  {"xs":[1,2.5e3]}`,
	`{"op":"a","sub":{"a":true}}` + "\n" + `{"op":"step"`,
	`{"op":"a"`,
	`{"op":`,
	`{"op":"a","extra":1}`,
	`{"sub":{"a":true,"b":1}}`,
	`{"n":"x"}`,
	`{"n":1e400}`,
	`{"n":1.5}`,
	`[1,2]`,
	`"str"` + "\n",
	`null 7`,
	`null`,
	`12`,
	`{"op":"a"}}`,
	`{"op" "a"}`,
	`{"xs":[1,,2]}`,
	"{\"op\":\"\xff\"}",
	`tru`,
	`true false`,
	`{"op":"` + strings.Repeat("a", 100) + `"}`,
	strings.Repeat(" ", 80) + `{}`,
	`{"op":"a"}` + strings.Repeat(" ", 80),
}

// TestDecoderMatchesStdlib compares the bounded decoder with a bare
// json.Decoder on every input, at the protocol limit (where none of them
// comes near it) and at every small limit (where the over-long rule
// fires at each value boundary).
func TestDecoderMatchesStdlib(t *testing.T) {
	for _, in := range differentialInputs {
		checkDifferential(t, []byte(in), MaxValue)
		for limit := int64(0); limit <= int64(len(in))+2; limit++ {
			checkDifferential(t, []byte(in), limit)
		}
	}
}

// FuzzDecoder is TestDecoderMatchesStdlib on arbitrary input and an
// arbitrary small limit.
func FuzzDecoder(f *testing.F) {
	for _, in := range differentialInputs {
		f.Add([]byte(in), uint8(len(in)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint8) {
		checkDifferential(t, data, MaxValue)
		checkDifferential(t, data, int64(limit))
	})
}

// TestDecoderOverlong feeds the real limit: a value of exactly MaxValue
// bytes decodes, one byte more is malformed, and an unterminated value
// is rejected after the decoder has read no more than MaxValue+1 bytes
// of it.
func TestDecoderOverlong(t *testing.T) {
	value := func(n int) string { // an object of exactly n bytes
		return `{"op":"` + strings.Repeat("a", n-len(`{"op":""}`)) + `"}`
	}
	var m msg
	if err := NewDecoder(strings.NewReader(value(MaxValue))).Decode(&m); err != nil {
		t.Fatalf("value of MaxValue bytes: %v", err)
	}
	if err := NewDecoder(strings.NewReader(value(MaxValue + 1))).Decode(&m); err != ErrTooLong {
		t.Fatalf("value of MaxValue+1 bytes: %v, want a malformed ErrTooLong", err)
	}
	src := &countingReader{r: io.MultiReader(strings.NewReader(`{"op":"`), neverEnding('a'))}
	if err := NewDecoder(src).Decode(&m); err != ErrTooLong {
		t.Fatalf("unterminated value: %v, want a malformed ErrTooLong", err)
	}
	if src.n > MaxValue+1 {
		t.Fatalf("read %d bytes of an unterminated value, limit %d", src.n, MaxValue)
	}
}

type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestDecoderTransportError checks that the source's own read error
// comes back as is, not as a malformed value.
func TestDecoderTransportError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, in := range []string{``, `{"op":"a"}`, `{"op":`} {
		dec := NewDecoder(io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)))
		var err error
		for err == nil {
			var m msg
			err = dec.Decode(&m)
		}
		if err != boom {
			t.Fatalf("input %q: decode error %v, want the reader's %v", in, err, boom)
		}
	}
}

// TestServerRoundTripAndClose runs a Client against an echo handler on a
// Server, then checks Close: it hangs up on the open connection, waits
// for its handler, makes Serve return nil, and refuses a later Serve.
func TestServerRoundTripAndClose(t *testing.T) {
	srv := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handled := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- srv.Serve(ln, func(conn net.Conn) {
			defer close(handled)
			enc, dec := json.NewEncoder(conn), NewDecoder(conn)
			for {
				var m msg
				if dec.Decode(&m) != nil {
					return
				}
				m.N++
				enc.Encode(m)
			}
		})
	}()
	c, err := Dial[msg, msg](ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(msg{Op: "echo", N: 41})
	if err != nil || resp.Op != "echo" || resp.N != 42 {
		t.Fatalf("round trip: %+v, %v", resp, err)
	}
	srv.Close()
	select {
	case <-handled:
	default:
		t.Fatal("Close returned before the connection's handler")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still accepting after Close")
	}
	if _, err := c.Do(msg{}); err == nil {
		t.Fatal("round trip on a connection Close dropped")
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2, func(net.Conn) {}); err == nil {
		t.Fatal("Serve on a closed server returned nil")
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
}
