// Package comms models the V2V communication channel of paper §II-A and the
// three disturbance settings of §V: "no disturbance" (every message arrives
// immediately), "messages delayed" (each message is delayed by Δt_d and may
// be dropped with probability p_d), and "messages lost" (every message is
// dropped, leaving only onboard sensors).
//
// Message *content* is always accurate — the channel only affects delivery
// time.  Randomness is injected through a caller-owned *rand.Rand so
// simulations are reproducible.
package comms

import (
	"fmt"
	"math/rand"
	"sort"

	"safeplan/internal/disturb"
	"safeplan/internal/xrand"
)

// Message is a V2V state report: the exact kinematic state of the sender's
// vehicle at timestamp T.
type Message struct {
	Sender int     // sender vehicle index
	T      float64 // timestamp the state refers to [s]
	P      float64 // position at T [m]
	V      float64 // velocity at T [m/s]
	A      float64 // acceleration applied at T [m/s²]
}

// Config describes a channel's disturbance behaviour.
type Config struct {
	// Model is the channel's disturbance process (i.i.d. loss and delay,
	// blackout, Gilbert–Elliott burst loss, delay jitter with reordering,
	// stale replay, scripted phase schedules — see internal/disturb); nil
	// is a perfect channel.
	Model disturb.Model
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Model != nil {
		if err := c.Model.Validate(); err != nil {
			return fmt.Errorf("comms: %w", err)
		}
	}
	return nil
}

// NoDisturbance returns the perfect-communication setting.
func NoDisturbance() Config { return Config{} }

// Delayed returns the "messages delayed" setting of the paper's evaluation:
// delay Δt_d with drop probability pd.
func Delayed(delay, pd float64) Config { return Config{Model: disturb.IID{DropProb: pd, Delay: delay}} }

// Lost returns the "messages lost" setting (sensors only).
func Lost() Config { return Config{Model: disturb.Blackout{}} }

// Disturbed returns a channel governed by the given disturbance model.
func Disturbed(m disturb.Model) Config { return Config{Model: m} }

// pending is a message waiting for its delivery time.
type pending struct {
	deliverAt float64
	msg       Message
}

// Channel simulates the unreliable V2V link from one sender to the ego
// vehicle.  It is not safe for concurrent use.
type Channel struct {
	proc  disturb.Process // nil for a perfect channel
	drop  *rand.Rand      // loss decisions only
	delay *rand.Rand      // latency draws only
	queue []pending

	sent, dropped, delivered int
}

// NewChannel creates a channel with the given disturbance configuration.
// rng must be non-nil; it seeds two independent derived streams — one for
// loss decisions, one for latency draws — so sweeping a loss parameter
// (p_d, burst dwell) never perturbs the delays of unrelated messages in a
// seed-paired A/B comparison.
func NewChannel(cfg Config, rng *rand.Rand) (*Channel, error) {
	ch := &Channel{}
	if err := ch.Reset(cfg, rng); err != nil {
		return nil, err
	}
	return ch, nil
}

// Reset re-initialises the channel in place for a new episode, reusing the
// queue backing array, the two derived rand streams and, through
// disturb.Renew, the disturbance process when the model keeps its kind.
// It draws from rng in exactly the order NewChannel does (drop seed, then
// delay seed), so a reset channel is bit-identical to a freshly
// constructed one.
func (c *Channel) Reset(cfg Config, rng *rand.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("comms: nil rng")
	}
	if c.drop == nil {
		c.drop = xrand.New(rng.Int63())
		c.delay = xrand.New(rng.Int63())
	} else {
		c.drop.Seed(rng.Int63())
		c.delay.Seed(rng.Int63())
	}
	if cfg.Model == nil {
		c.proc = nil
	} else {
		c.proc = disturb.Renew(c.proc, cfg.Model, c.drop, c.delay)
	}
	c.queue = c.queue[:0]
	c.sent, c.dropped, c.delivered = 0, 0, 0
	return nil
}

// Send offers a message to the channel at its timestamp m.T.  Depending on
// the configuration the message is dropped or enqueued for delivery after
// its per-message latency; disturbance models may additionally enqueue
// stale duplicate copies.
func (c *Channel) Send(m Message) {
	c.sent++
	if c.proc == nil {
		c.enqueue(m.T, m)
		return
	}
	d := c.proc.Next(m.T)
	if d.Drop {
		c.dropped++
		return
	}
	c.enqueue(m.T+d.Delay, m)
	for _, extra := range d.Dup {
		c.enqueue(m.T+extra, m)
	}
}

// enqueue inserts one delivery, keeping the queue sorted by delivery time
// (jitter models enqueue out of order; the stable sort keeps ties in send
// order, so PollAppend output is deterministic).
func (c *Channel) enqueue(at float64, m Message) {
	c.queue = append(c.queue, pending{deliverAt: at, msg: m})
	if n := len(c.queue); n > 1 && c.queue[n-2].deliverAt > c.queue[n-1].deliverAt {
		sort.SliceStable(c.queue, func(i, j int) bool {
			return c.queue[i].deliverAt < c.queue[j].deliverAt
		})
	}
}

// PollAppend removes from the queue every message whose delivery time is
// ≤ now and appends them, in delivery order, to buf (which may be nil or
// a reused scratch slice, so the steady state does not allocate); it
// returns the extended slice.
func (c *Channel) PollAppend(now float64, buf []Message) []Message {
	i := 0
	for ; i < len(c.queue); i++ {
		if c.queue[i].deliverAt > now {
			break
		}
		buf = append(buf, c.queue[i].msg)
	}
	if i > 0 {
		c.queue = append(c.queue[:0], c.queue[i:]...)
		c.delivered += i
	}
	return buf
}

// Stats returns the lifetime counters (sent, dropped, delivered).
func (c *Channel) Stats() (sent, dropped, delivered int) {
	return c.sent, c.dropped, c.delivered
}

// Ticker generates the periodic broadcast/sensing instants of the paper
// (every Δt_m or Δt_s seconds).  It counts periods with an integer index so
// repeated float addition cannot drift.
type Ticker struct {
	period float64
	next   int // index of the next tick
}

// MakeTicker returns a ticker firing at 0, period, 2·period, …  A
// non-positive period yields a ticker that never fires.
func MakeTicker(period float64) Ticker {
	return Ticker{period: period}
}

// Due reports whether a tick time ≤ now is pending and, if so, consumes it
// and returns its exact scheduled time.  Call repeatedly to drain multiple
// elapsed ticks.
func (tk *Ticker) Due(now float64) (float64, bool) {
	if tk.period <= 0 {
		return 0, false
	}
	at := float64(tk.next) * tk.period
	// Tolerate float error in the caller's clock accumulation.
	if at <= now+1e-9 {
		tk.next++
		return at, true
	}
	return 0, false
}
