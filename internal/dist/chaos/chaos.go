// Package chaos is the crash-injection harness for the distributed
// campaign tier: it wraps a worker's protocol transport with scripted
// message faults (drop, delay, duplicate — driven by the same
// internal/disturb channel models the simulator uses for V2V traffic) and
// corrupts result payloads in flight; this package's tests add killing
// workers at a chosen episode and corrupting checkpoints on disk.  The
// differential gate in those tests proves the tier's headline property:
// final campaign statistics are byte-identical to a single-process run
// under EVERY injected failure mode.
//
// Faults are injected at the transport seam (dist.Conn), so the
// coordinator and worker under test run their real code paths — retry,
// backoff, lease expiry, duplicate admission — rather than mocks of
// them.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"safeplan/internal/dist"
	"safeplan/internal/disturb"
)

// ErrInjected marks transport failures manufactured by this package, so
// tests can tell injected faults from real bugs.
var ErrInjected = errors.New("chaos: injected fault")

// Config scripts the faults one Conn injects.
type Config struct {
	// Request governs the worker→coordinator leg.  A Drop decision means
	// the request never reaches the coordinator (the worker sees a
	// transport error and retries); Dup delivers spare copies of the
	// request before the real one — duplicate protocol messages.
	Request disturb.Model
	// Response governs the coordinator→worker leg.  A Drop decision
	// means the coordinator PROCESSED the request but the answer was
	// lost — the classic ambiguous failure that forces retries and
	// duplicate result submissions.
	Response disturb.Model

	// CorruptSumProb flips a byte of the result checksum on submissions
	// with this probability, simulating payload corruption in flight;
	// the coordinator must answer ReasonBadSum and the worker resubmit.
	CorruptSumProb float64

	// Unit converts a disturbance Delay (seconds in the channel-model
	// domain) into wall time; 0 selects time.Millisecond per second, so
	// simulator-scale models inject microsecond-scale test latencies.
	Unit time.Duration

	// Clock performs delay sleeps; nil selects dist.RealClock.
	Clock dist.Clock

	// Seed derives the fault streams.  The same seed replays the same
	// fault script against a deterministic request sequence.
	Seed int64
}

// Conn injects Config's faults around an inner transport.  Like the
// disturbance processes it is built on, it is single-goroutine (one
// worker owns one Conn).
type Conn struct {
	inner dist.Conn
	cfg   Config
	clock dist.Clock
	req   disturb.Process
	resp  disturb.Process
	rng   *rand.Rand
	t     float64

	// Counters let tests assert the script actually fired.
	DroppedRequests  int
	DroppedResponses int
	DupedRequests    int
	CorruptedSums    int
	Delays           int
}

// Wrap builds a chaos transport around inner.
func Wrap(inner dist.Conn, cfg Config) *Conn {
	if cfg.Unit <= 0 {
		cfg.Unit = time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = dist.RealClock{}
	}
	mk := func(m disturb.Model, salt int64) disturb.Process {
		if m == nil {
			m = disturb.None{}
		}
		return m.New(
			rand.New(rand.NewSource(cfg.Seed^salt)),
			rand.New(rand.NewSource(cfg.Seed^salt^0x5eed)),
		)
	}
	return &Conn{
		inner: inner,
		cfg:   cfg,
		clock: cfg.Clock,
		req:   mk(cfg.Request, 0x7ea),
		resp:  mk(cfg.Response, 0xaca),
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0xc0ffee)),
	}
}

// Dial wraps a dial function so every redial gets a fresh chaos
// transport with a seed derived from the attempt number — fault scripts
// stay reproducible across reconnects.
func Dial(inner func() (dist.Conn, error), cfg Config) func() (dist.Conn, error) {
	attempt := int64(0)
	return func() (dist.Conn, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		dcfg := cfg
		dcfg.Seed = cfg.Seed + 1_000_003*attempt
		attempt++
		return Wrap(c, dcfg), nil
	}
}

// sleep converts a channel-model delay to wall time and sleeps it.
func (c *Conn) sleep(delay float64) {
	if delay <= 0 {
		return
	}
	c.Delays++
	c.clock.Sleep(time.Duration(delay * float64(c.cfg.Unit)))
}

// Do implements dist.Conn with the scripted faults applied around the
// real round trip.
func (c *Conn) Do(req dist.Request) (dist.Response, error) {
	t := c.t
	c.t++

	// Payload corruption: mangle the result checksum in flight.  The sum
	// no longer matches the stats, so the coordinator must refuse to
	// fold and the worker must resubmit.
	if req.Op == dist.OpResult && c.cfg.CorruptSumProb > 0 && c.rng.Float64() < c.cfg.CorruptSumProb && req.Sum != "" {
		c.CorruptedSums++
		b := []byte(req.Sum)
		b[0] ^= 0x1 // hex-digit flip: still well-formed, just wrong
		if string(b) == req.Sum {
			b[0] ^= 0x3
		}
		req.Sum = string(b)
	}

	// Request leg.
	rd := c.req.Next(t)
	if rd.Drop {
		c.DroppedRequests++
		return dist.Response{}, fmt.Errorf("%w: request %s dropped", ErrInjected, req.Op)
	}
	c.sleep(rd.Delay)
	for range rd.Dup {
		// A duplicated protocol message: the coordinator sees the same
		// request again before the copy the worker will read the answer
		// to.  Idempotent ops (hello, renew, result) must tolerate it.
		c.DupedRequests++
		if _, err := c.inner.Do(req); err != nil {
			return dist.Response{}, err
		}
	}
	resp, err := c.inner.Do(req)
	if err != nil {
		return dist.Response{}, err
	}

	// Response leg: the coordinator has already processed the request.
	pd := c.resp.Next(t)
	if pd.Drop {
		c.DroppedResponses++
		return dist.Response{}, fmt.Errorf("%w: response to %s dropped", ErrInjected, req.Op)
	}
	c.sleep(pd.Delay)
	return resp, nil
}

// Close implements dist.Conn.
func (c *Conn) Close() error { return c.inner.Close() }
