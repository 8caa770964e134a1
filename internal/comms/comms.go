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
	Delay    float64 // Δt_d: delivery delay applied to every surviving message [s]
	DropProb float64 // p_d: probability each message is dropped, in [0, 1]
	Lost     bool    // if true, every message is dropped ("messages lost")

	// OutageStart/OutageDuration model a communication blackout (e.g. an
	// occlusion or interferer): every message whose timestamp falls in
	// [OutageStart, OutageStart+OutageDuration) is dropped.  A zero
	// duration disables the outage.
	OutageStart    float64
	OutageDuration float64

	// Model, when non-nil, replaces the Delay/DropProb pair with a
	// composable disturbance process (Gilbert–Elliott burst loss, delay
	// jitter with reordering, stale replay, scripted phase schedules —
	// see internal/disturb).  Lost and the outage window still apply
	// first; they are deterministic and consume no randomness.
	Model disturb.Model
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Delay < 0 {
		return fmt.Errorf("comms: negative delay %v", c.Delay)
	}
	if c.DropProb < 0 || c.DropProb > 1 {
		return fmt.Errorf("comms: drop probability %v outside [0,1]", c.DropProb)
	}
	if c.OutageDuration < 0 {
		return fmt.Errorf("comms: negative outage duration %v", c.OutageDuration)
	}
	if c.Model != nil {
		if err := c.Model.Validate(); err != nil {
			return fmt.Errorf("comms: %w", err)
		}
	}
	return nil
}

// inOutage reports whether a message stamped t falls into the blackout.
func (c Config) inOutage(t float64) bool {
	return c.OutageDuration > 0 && t >= c.OutageStart && t < c.OutageStart+c.OutageDuration
}

// NoDisturbance returns the perfect-communication setting.
func NoDisturbance() Config { return Config{} }

// Delayed returns the "messages delayed" setting of the paper's evaluation:
// delay Δt_d with drop probability pd.
func Delayed(delay, pd float64) Config { return Config{Delay: delay, DropProb: pd} }

// Lost returns the "messages lost" setting (sensors only).
func Lost() Config { return Config{Lost: true} }

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
	cfg   Config
	proc  disturb.Process // nil for the legacy Delay/DropProb pair
	drop  *rand.Rand      // loss decisions only
	delay *rand.Rand      // latency draws only
	queue []pending

	sent, dropped, delivered, replayed int
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
	c.cfg = cfg
	if cfg.Model == nil {
		c.proc = nil
	} else {
		c.proc = disturb.Renew(c.proc, cfg.Model, c.drop, c.delay)
	}
	c.queue = c.queue[:0]
	c.sent, c.dropped, c.delivered, c.replayed = 0, 0, 0, 0
	return nil
}

// Send offers a message to the channel at its timestamp m.T.  Depending on
// the configuration the message is dropped or enqueued for delivery after
// its per-message latency; disturbance models may additionally enqueue
// stale duplicate copies.
func (c *Channel) Send(m Message) {
	c.sent++
	if c.cfg.Lost || c.cfg.inOutage(m.T) {
		c.dropped++
		return
	}
	if c.proc != nil {
		d := c.proc.Next(m.T)
		if d.Drop {
			c.dropped++
			return
		}
		c.enqueue(m.T+d.Delay, m)
		for _, extra := range d.Dup {
			c.replayed++
			c.enqueue(m.T+extra, m)
		}
		return
	}
	if c.cfg.DropProb > 0 && c.drop.Float64() < c.cfg.DropProb {
		c.dropped++
		return
	}
	c.enqueue(m.T+c.cfg.Delay, m)
}

// enqueue inserts one delivery, keeping the queue sorted by delivery time
// (jitter models enqueue out of order; the stable sort keeps ties in send
// order, so Poll output is deterministic).
func (c *Channel) enqueue(at float64, m Message) {
	c.queue = append(c.queue, pending{deliverAt: at, msg: m})
	if n := len(c.queue); n > 1 && c.queue[n-2].deliverAt > c.queue[n-1].deliverAt {
		sort.SliceStable(c.queue, func(i, j int) bool {
			return c.queue[i].deliverAt < c.queue[j].deliverAt
		})
	}
}

// Poll returns, in delivery order, every message whose delivery time is
// ≤ now, removing them from the queue.  It allocates a fresh slice per
// call; hot paths should hold a scratch buffer and use PollAppend.
func (c *Channel) Poll(now float64) []Message {
	return c.PollAppend(now, nil)
}

// PollAppend is the allocation-free form of Poll: due messages are appended
// to buf (which may be nil or a reused scratch slice) and the extended
// slice is returned.  Delivery order and side effects are identical to
// Poll.
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

// Pending returns how many messages are in flight.
func (c *Channel) Pending() int { return len(c.queue) }

// Stats returns the lifetime counters (sent, dropped, delivered).
func (c *Channel) Stats() (sent, dropped, delivered int) {
	return c.sent, c.dropped, c.delivered
}

// Replayed returns how many stale duplicate deliveries the disturbance
// model has enqueued.
func (c *Channel) Replayed() int { return c.replayed }

// Ticker generates the periodic broadcast/sensing instants of the paper
// (every Δt_m or Δt_s seconds).  It counts periods with an integer index so
// repeated float addition cannot drift.
type Ticker struct {
	period float64
	next   int // index of the next tick
}

// NewTicker returns a ticker firing at 0, period, 2·period, …  A
// non-positive period yields a ticker that never fires.
func NewTicker(period float64) *Ticker {
	return &Ticker{period: period}
}

// MakeTicker is the by-value form of NewTicker; episode step loops keep it
// on the stack instead of heap-allocating a fresh ticker per episode.
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

// Reset rewinds the ticker to fire at 0 again.
func (tk *Ticker) Reset() { tk.next = 0 }
