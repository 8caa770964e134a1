package sim

import (
	"math/rand"

	"safeplan/internal/comms"
	"safeplan/internal/fusion"
	"safeplan/internal/sensor"
	"safeplan/internal/traffic"
	"safeplan/internal/xrand"
)

// Scratch is an episode-scoped arena: it owns the per-episode objects the
// step loops would otherwise allocate fresh every episode (derived random
// streams, the channel, sensor model, drivers, fusion filter, and the
// engine itself), and hands them back reset.  Reusing a Scratch across
// episodes makes steady-state episodes allocation-free while staying
// bit-identical to the allocate-fresh path: every component's Reset draws
// from the parent rng in exactly the order its constructor does, and every
// derived rand.Rand is reseeded rather than recreated (reseeding a
// math/rand source reproduces the exact stream of a fresh one).
//
// A Scratch serves one episode at a time and is not safe for concurrent
// use.  Campaign workers draw one from a pool per shard, never sharing it
// between goroutines; per-episode determinism is untouched because nothing
// in the arena carries state across Begin calls.
//
// The acquisition methods need a non-nil receiver: the engines give an
// episode that was passed no arena a fresh one (NewScratch) on entry, so
// there is one code path with and without a caller-owned Scratch.
type Scratch struct {
	rngs []*rand.Rand
	nRng int

	channels []*comms.Channel
	nChan    int

	sensors []*sensor.Model
	nSens   int

	drivers []*traffic.Driver
	nDrv    int

	stopgos []*traffic.StopAndGo
	nStop   int

	filters []*fusion.Filter
	nFilt   int

	// The pooled resumable engines, one per engine type (see Pooled).
	engines []any
}

// NewScratch returns an empty arena; components are created lazily on first
// use and reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Begin readies the arena for a new episode, releasing every component
// acquired by the previous one back into the reuse pools.  Episode runners
// call it once on entry.
func (s *Scratch) Begin() {
	s.nRng, s.nChan, s.nSens, s.nDrv, s.nStop, s.nFilt = 0, 0, 0, 0, 0, 0
}

// RNG returns a rand.Rand seeded with seed — a pooled instance reseeded in
// place when available, a fresh one otherwise.  Both are xrand streams,
// which seed fast and draw exactly what a math/rand source seeded with
// seed would.
func (s *Scratch) RNG(seed int64) *rand.Rand {
	if s.nRng < len(s.rngs) {
		r := s.rngs[s.nRng]
		s.nRng++
		r.Seed(seed)
		return r
	}
	r := xrand.New(seed)
	s.rngs = append(s.rngs, r)
	s.nRng++
	return r
}

// Channel returns a channel configured like comms.NewChannel(cfg, rng),
// reusing a pooled instance when available.
func (s *Scratch) Channel(cfg comms.Config, rng *rand.Rand) (*comms.Channel, error) {
	if s.nChan < len(s.channels) {
		c := s.channels[s.nChan]
		if err := c.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nChan++
		return c, nil
	}
	c, err := comms.NewChannel(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.channels = append(s.channels, c)
	s.nChan++
	return c, nil
}

// Sensor returns a sensor model configured like sensor.New(cfg, rng).
func (s *Scratch) Sensor(cfg sensor.Config, rng *rand.Rand) (*sensor.Model, error) {
	if s.nSens < len(s.sensors) {
		m := s.sensors[s.nSens]
		if err := m.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nSens++
		return m, nil
	}
	m, err := sensor.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.sensors = append(s.sensors, m)
	s.nSens++
	return m, nil
}

// Driver returns a random driver configured like traffic.NewDriver(cfg, rng).
func (s *Scratch) Driver(cfg traffic.DriverConfig, rng *rand.Rand) (*traffic.Driver, error) {
	if s.nDrv < len(s.drivers) {
		d := s.drivers[s.nDrv]
		if err := d.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nDrv++
		return d, nil
	}
	d, err := traffic.NewDriver(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.drivers = append(s.drivers, d)
	s.nDrv++
	return d, nil
}

// StopAndGo returns a stop-and-go lead driver configured like
// traffic.NewStopAndGo(cfg, rng).
func (s *Scratch) StopAndGo(cfg traffic.StopAndGoConfig, rng *rand.Rand) (*traffic.StopAndGo, error) {
	if s.nStop < len(s.stopgos) {
		d := s.stopgos[s.nStop]
		if err := d.Reset(cfg, rng); err != nil {
			return nil, err
		}
		s.nStop++
		return d, nil
	}
	d, err := traffic.NewStopAndGo(cfg, rng)
	if err != nil {
		return nil, err
	}
	s.stopgos = append(s.stopgos, d)
	s.nStop++
	return d, nil
}

// Fusion returns a fusion filter configured like fusion.New(cfg), reusing a
// pooled instance (and its Kalman history buffer) when available.
func (s *Scratch) Fusion(cfg fusion.Config) (*fusion.Filter, error) {
	if s.nFilt < len(s.filters) {
		f := s.filters[s.nFilt]
		if err := f.ResetConfig(cfg); err != nil {
			return nil, err
		}
		s.nFilt++
		return f, nil
	}
	f, err := fusion.New(cfg)
	if err != nil {
		return nil, err
	}
	s.filters = append(s.filters, f)
	s.nFilt++
	return f, nil
}

// Pooled returns the arena's pooled engine of type T (MultiStepper,
// carfollow.Stepper), allocating it on first use.  The caller resets it;
// the previous episode's engine of that type is invalidated, matching the
// one-episode-at-a-time arena contract.  An engine keeps its own hooks
// and per-link storage across episodes (see Zeroed), so reusing it keeps
// repeat episodes allocation-free.
func Pooled[T any](s *Scratch) *T {
	for _, e := range s.engines {
		if p, ok := e.(*T); ok {
			return p
		}
	}
	p := new(T)
	s.engines = append(s.engines, p)
	return p
}
