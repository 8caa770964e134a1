// Package disturb is the composable disturbance-model layer for the V2V
// channel and the onboard sensor.  It generalizes the evaluation's three
// fixed communication settings (perfect / delayed+dropped / lost) to
// arbitrary scripted disturbance processes: Gilbert–Elliott burst loss,
// uniform and heavy-tailed delay jitter with message reordering, stale
// message replay, total blackout windows, and sensor bias drift and
// dropout — plus a Schedule combinator that switches models over episode
// time ("clean 0–2 s, burst loss 2–5 s, blackout 5–6 s").
//
// Every model is a deterministic seeded process: a Model is an immutable
// description, and Model.New instantiates one episode's worth of state fed
// by caller-owned random streams.  Drop decisions and delay draws come
// from *separate* streams so that sweeping a loss parameter (e.g. the
// Gilbert–Elliott bad-state dwell) never perturbs the latency of the
// messages that survive in both arms of an A/B comparison.
//
// Soundness note (why the paper's safety theorem survives every model
// here): the reachability analysis behind the runtime monitor only
// assumes that a delivered message carries the sender's exact state at
// its timestamp — never that messages arrive at all, on time, in order,
// or exactly once.  Dropping, delaying, reordering, and replaying
// messages therefore only ever *widen* the sound estimate.  Sensor-side
// models preserve the sensor's ±δ noise envelope by construction (bias is
// clamped into it), so the sound reading interval stays sound.  See
// DESIGN.md §"Disturbance models".
package disturb

import (
	"fmt"
	"math"
	"math/rand"

	"safeplan/internal/xrand"
)

// Decision is the fate of one message offered to the channel.
type Decision struct {
	// Drop discards the message entirely.
	Drop bool
	// Delay is the delivery latency of the (surviving) message [s].
	Delay float64
	// Dup lists delivery latencies of duplicate copies of the message.
	// A duplicate delivered with a larger latency than fresher traffic is
	// exactly a stale replay at the receiver: an old timestamp arriving
	// after newer information, which the fusion filter must discard.
	Dup []float64
}

// Process is one episode's instantiated disturbance process for a single
// channel.  Next is called once per offered message in nondecreasing
// timestamp order.  It is not safe for concurrent use.
type Process interface {
	Next(t float64) Decision
}

// Model is an immutable description of a channel disturbance process.
type Model interface {
	// Name identifies the model in tables and flags.
	Name() string
	// Validate reports whether the parameters are usable.
	Validate() error
	// New instantiates a fresh process.  Loss decisions must draw only
	// from dropRng and latency draws only from delayRng, and a process
	// should consume its per-message delay draw even for dropped
	// messages, so the two streams stay aligned across parameter sweeps.
	New(dropRng, delayRng *rand.Rand) Process
}

// renewer is a process that can reset itself in place for a new episode.
type renewer interface {
	// renew puts the process in the state m.New(dropRng, delayRng) would
	// build, drawing from the two streams in the same order, and reports
	// whether it could: false when m is not a model of the process's own
	// kind.
	renew(m Model, dropRng, delayRng *rand.Rand) bool
}

// Renew returns m's process for a new episode: p reset in place when it
// is a process of the same kind of model as m, else m.New(dropRng,
// delayRng).  Either way the result, and what it draws from the streams,
// equal a fresh m.New, so a channel that calls Renew every episode
// allocates its process only when the model's kind changes.  p may be
// nil.
func Renew(p Process, m Model, dropRng, delayRng *rand.Rand) Process {
	if r, ok := p.(renewer); ok && r.renew(m, dropRng, delayRng) {
		return p
	}
	return m.New(dropRng, delayRng)
}

// validDelay rejects non-finite or negative latencies.
func validDelay(name string, d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("disturb: %s: bad delay %v", name, d)
	}
	return nil
}

// validProb rejects values outside [0, 1].
func validProb(name, field string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("disturb: %s: %s %v outside [0,1]", name, field, p)
	}
	return nil
}

// None is the perfect-channel model: every message delivered immediately.
type None struct{}

// Name implements Model.
func (None) Name() string { return "none" }

// Validate implements Model.
func (None) Validate() error { return nil }

// New implements Model.
func (None) New(_, _ *rand.Rand) Process { return noneProcess{} }

type noneProcess struct{}

func (noneProcess) Next(float64) Decision { return Decision{} }

// Blackout drops every message.  On its own it is the "messages lost"
// setting; inside a Schedule phase it is a total communication blackout
// window (occlusion, interferer, denial of service).
type Blackout struct{}

// Name implements Model.
func (Blackout) Name() string { return "blackout" }

// Validate implements Model.
func (Blackout) Validate() error { return nil }

// New implements Model.
func (Blackout) New(_, _ *rand.Rand) Process { return blackoutProcess{} }

type blackoutProcess struct{}

func (blackoutProcess) Next(float64) Decision { return Decision{Drop: true} }

// IID is the evaluation's classic channel: each message independently
// dropped with probability DropProb, survivors delayed by the constant
// Delay.  It reproduces comms.Delayed(delay, pd) behind the Model
// interface.
type IID struct {
	DropProb float64 // per-message drop probability, in [0, 1]
	Delay    float64 // constant delivery latency [s]
}

// Name implements Model.
func (IID) Name() string { return "iid" }

// Validate implements Model.
func (m IID) Validate() error {
	if err := validProb(m.Name(), "drop probability", m.DropProb); err != nil {
		return err
	}
	return validDelay(m.Name(), m.Delay)
}

// New implements Model.
func (m IID) New(dropRng, _ *rand.Rand) Process {
	return &iidProcess{m: m, drop: dropRng}
}

type iidProcess struct {
	m    IID
	drop *rand.Rand
}

func (p *iidProcess) renew(m Model, dropRng, _ *rand.Rand) bool {
	mm, ok := m.(IID)
	if ok {
		*p = iidProcess{m: mm, drop: dropRng}
	}
	return ok
}

func (p *iidProcess) Next(float64) Decision {
	d := Decision{Delay: p.m.Delay}
	if p.m.DropProb > 0 && p.drop.Float64() < p.m.DropProb {
		d.Drop = true
	}
	return d
}

// GilbertElliott is the classic two-state burst-loss channel: a hidden
// Markov chain alternates between a good and a bad state, with independent
// loss probabilities per state.  With DropBad near 1 it produces loss
// *bursts* whose mean length is 1/PBadGood messages — the disturbance
// i.i.d. drops cannot express, and the one that starves the filter of
// messages for many consecutive control steps.
type GilbertElliott struct {
	PGoodBad float64 // per-message transition probability good → bad
	PBadGood float64 // per-message transition probability bad → good
	DropGood float64 // loss probability in the good state
	DropBad  float64 // loss probability in the bad state
	Delay    float64 // constant delivery latency of survivors [s]
	StartBad bool    // start the chain in the bad state
}

// Name implements Model.
func (GilbertElliott) Name() string { return "gilbert-elliott" }

// Validate implements Model.
func (m GilbertElliott) Validate() error {
	for _, f := range []struct {
		field string
		p     float64
	}{
		{"P(good→bad)", m.PGoodBad},
		{"P(bad→good)", m.PBadGood},
		{"drop(good)", m.DropGood},
		{"drop(bad)", m.DropBad},
	} {
		if err := validProb(m.Name(), f.field, f.p); err != nil {
			return err
		}
	}
	return validDelay(m.Name(), m.Delay)
}

// New implements Model.
func (m GilbertElliott) New(dropRng, _ *rand.Rand) Process {
	return &geProcess{m: m, drop: dropRng, bad: m.StartBad}
}

type geProcess struct {
	m    GilbertElliott
	drop *rand.Rand
	bad  bool
}

func (p *geProcess) renew(m Model, dropRng, _ *rand.Rand) bool {
	mm, ok := m.(GilbertElliott)
	if ok {
		*p = geProcess{m: mm, drop: dropRng, bad: mm.StartBad}
	}
	return ok
}

func (p *geProcess) Next(float64) Decision {
	// Loss by the current state, then transition — so StartBad takes
	// effect on the very first message.
	loss := p.m.DropGood
	flip := p.m.PGoodBad
	if p.bad {
		loss = p.m.DropBad
		flip = p.m.PBadGood
	}
	d := Decision{Delay: p.m.Delay}
	if loss > 0 && p.drop.Float64() < loss {
		d.Drop = true
	}
	if flip > 0 && p.drop.Float64() < flip {
		p.bad = !p.bad
	}
	return d
}

// Jitter delays each message by Base + U(0, Spread) and, with probability
// TailProb, an additional exponential heavy-tail draw of mean TailMean —
// so occasional messages arrive much later than their successors.
// Per-message latency variation is what produces *reordering*: a message
// can be overtaken by a fresher one, and the filter must discard it on
// arrival.  DropProb adds independent loss on top.
type Jitter struct {
	Base     float64 // minimum latency [s]
	Spread   float64 // width of the uniform jitter component [s]
	TailProb float64 // probability of a heavy-tail excursion, in [0, 1]
	TailMean float64 // mean of the exponential tail component [s]
	DropProb float64 // independent per-message drop probability, in [0, 1]
}

// Name implements Model.
func (Jitter) Name() string { return "jitter" }

// Validate implements Model.
func (m Jitter) Validate() error {
	if err := validDelay(m.Name(), m.Base); err != nil {
		return err
	}
	if err := validDelay(m.Name(), m.Spread); err != nil {
		return err
	}
	if err := validDelay(m.Name(), m.TailMean); err != nil {
		return err
	}
	if err := validProb(m.Name(), "tail probability", m.TailProb); err != nil {
		return err
	}
	return validProb(m.Name(), "drop probability", m.DropProb)
}

// New implements Model.
func (m Jitter) New(dropRng, delayRng *rand.Rand) Process {
	return &jitterProcess{m: m, drop: dropRng, delay: delayRng}
}

type jitterProcess struct {
	m           Jitter
	drop, delay *rand.Rand
}

func (p *jitterProcess) renew(m Model, dropRng, delayRng *rand.Rand) bool {
	mm, ok := m.(Jitter)
	if ok {
		*p = jitterProcess{m: mm, drop: dropRng, delay: delayRng}
	}
	return ok
}

func (p *jitterProcess) Next(float64) Decision {
	// Draw the latency unconditionally so the delay stream stays aligned
	// across drop-parameter sweeps (see the Model contract).
	lat := p.m.Base
	if p.m.Spread > 0 {
		lat += p.delay.Float64() * p.m.Spread
	}
	if p.m.TailProb > 0 && p.delay.Float64() < p.m.TailProb {
		// Inverse-CDF exponential draw; 1−U avoids log(0).
		lat += p.m.TailMean * -math.Log(1-p.delay.Float64())
	}
	d := Decision{Delay: lat}
	if p.m.DropProb > 0 && p.drop.Float64() < p.m.DropProb {
		d.Drop = true
	}
	return d
}

// Replay wraps another model and additionally re-delivers messages as
// stale duplicates: with probability Prob a surviving message spawns a
// copy arriving ExtraMin–ExtraMax seconds after the original.  By then
// fresher traffic has usually arrived, so the duplicate reaches the
// filter with an out-of-date timestamp — the stale-replay disturbance.
type Replay struct {
	Inner    Model   // the underlying loss/latency model (nil means None)
	Prob     float64 // per-message duplication probability, in [0, 1]
	ExtraMin float64 // minimum extra latency of the duplicate [s]
	ExtraMax float64 // maximum extra latency of the duplicate [s]
}

// Name implements Model.
func (m Replay) Name() string { return "replay(" + m.inner().Name() + ")" }

func (m Replay) inner() Model {
	if m.Inner == nil {
		return None{}
	}
	return m.Inner
}

// Validate implements Model.
func (m Replay) Validate() error {
	if err := validProb("replay", "duplication probability", m.Prob); err != nil {
		return err
	}
	if err := validDelay("replay", m.ExtraMin); err != nil {
		return err
	}
	if err := validDelay("replay", m.ExtraMax); err != nil {
		return err
	}
	if m.ExtraMin > m.ExtraMax {
		return fmt.Errorf("disturb: replay: extra latency range [%v, %v] reversed", m.ExtraMin, m.ExtraMax)
	}
	return m.inner().Validate()
}

// New implements Model.
func (m Replay) New(dropRng, delayRng *rand.Rand) Process {
	return &replayProcess{m: m, inner: m.inner().New(dropRng, delayRng), drop: dropRng, delay: delayRng}
}

type replayProcess struct {
	m           Replay
	inner       Process
	drop, delay *rand.Rand
}

func (p *replayProcess) renew(m Model, dropRng, delayRng *rand.Rand) bool {
	mm, ok := m.(Replay)
	if ok {
		*p = replayProcess{m: mm, inner: Renew(p.inner, mm.inner(), dropRng, delayRng), drop: dropRng, delay: delayRng}
	}
	return ok
}

func (p *replayProcess) Next(t float64) Decision {
	d := p.inner.Next(t)
	if d.Drop || p.m.Prob <= 0 {
		return d
	}
	if p.drop.Float64() < p.m.Prob {
		extra := p.m.ExtraMin + p.delay.Float64()*(p.m.ExtraMax-p.m.ExtraMin)
		d.Dup = append(d.Dup, d.Delay+extra)
	}
	return d
}

// Phase is one entry of a Schedule: Model governs messages stamped from
// Start until the next phase's start.
type Phase struct {
	Start float64 // phase onset [s], relative to episode time
	Model Model
}

// Schedule scripts disturbance phases over episode time.  The phase whose
// window contains a message's timestamp decides its fate; messages before
// the first phase see a perfect channel.  Each phase owns independent
// derived random streams, so editing one phase never perturbs another.
type Schedule struct {
	Phases []Phase
}

// Name implements Model.
func (m Schedule) Name() string {
	s := "schedule["
	for i, ph := range m.Phases {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%s", ph.Start, ph.Model.Name())
	}
	return s + "]"
}

// Validate implements Model.
func (m Schedule) Validate() error {
	if len(m.Phases) == 0 {
		return fmt.Errorf("disturb: schedule: no phases")
	}
	prev := math.Inf(-1)
	for i, ph := range m.Phases {
		if math.IsNaN(ph.Start) || ph.Start < prev {
			return fmt.Errorf("disturb: schedule: phase %d start %v not nondecreasing", i, ph.Start)
		}
		prev = ph.Start
		if ph.Model == nil {
			return fmt.Errorf("disturb: schedule: phase %d has nil model", i)
		}
		if err := ph.Model.Validate(); err != nil {
			return fmt.Errorf("disturb: schedule: phase %d: %w", i, err)
		}
	}
	return nil
}

// New implements Model.
func (m Schedule) New(dropRng, delayRng *rand.Rand) Process {
	n := len(m.Phases)
	p := &scheduleProcess{m: m, procs: make([]Process, n), drops: make([]*rand.Rand, n), delays: make([]*rand.Rand, n)}
	for i, ph := range m.Phases {
		// Derive per-phase substreams up front, in phase order, so each
		// phase's randomness is a pure function of (seed, phase index).
		p.drops[i] = xrand.New(dropRng.Int63())
		p.delays[i] = xrand.New(delayRng.Int63())
		p.procs[i] = ph.Model.New(p.drops[i], p.delays[i])
	}
	return p
}

type scheduleProcess struct {
	m             Schedule
	procs         []Process
	drops, delays []*rand.Rand // per-phase substreams
}

// renew reseeds the per-phase substreams in place (xrand streams reseed
// bit-identically to fresh ones) and renews each phase's process, so it
// needs only the same number of phases.
func (p *scheduleProcess) renew(m Model, dropRng, delayRng *rand.Rand) bool {
	mm, ok := m.(Schedule)
	if !ok || len(mm.Phases) != len(p.procs) {
		return false
	}
	p.m = mm
	for i, ph := range mm.Phases {
		p.drops[i].Seed(dropRng.Int63())
		p.delays[i].Seed(delayRng.Int63())
		p.procs[i] = Renew(p.procs[i], ph.Model, p.drops[i], p.delays[i])
	}
	return true
}

func (p *scheduleProcess) Next(t float64) Decision {
	active := -1
	for i, ph := range p.m.Phases {
		if t >= ph.Start {
			active = i
		}
	}
	if active < 0 {
		return Decision{} // before the first phase: perfect channel
	}
	return p.procs[active].Next(t)
}
