// Package faultinject is the compute-side counterpart of the channel and
// sensor disturbance layer (internal/disturb): composable fault models
// for the embedded planner κ_n itself.  Where disturb starves the
// *information* the planner consumes, faultinject corrupts the planner's
// *execution* — panics, NaN/±Inf outputs, stuck and biased commands, and
// simulated compute-latency spikes — so the guard layer (internal/guard)
// can be exercised under every failure mode the paper's theorem must
// survive.
//
// The determinism contract mirrors internal/disturb: a Model is an
// immutable description, Model.New instantiates one episode's process fed
// by caller-owned random streams, and fault *triggers* draw only from
// faultRng while fault *magnitudes* (latency durations) draw only from
// latRng — and a process consumes its magnitude draw even on steps where
// the trigger does not fire — so sweeping a trigger probability never
// perturbs the magnitudes of the faults that fire in both arms of an A/B
// comparison.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"

	"safeplan/internal/xrand"
)

// Decision is the fault injected into one planner invocation.
type Decision struct {
	// Panic raises a recoverable panic instead of returning.
	Panic bool
	// NonFinite replaces the output with NaN/±Inf (the injector cycles
	// through the three so every non-finite class is exercised).
	NonFinite bool
	// Stuck replays the planner's previous raw output (a frozen
	// inference backend returning a cached activation).
	Stuck bool
	// Bias is added to the output [m/s²] (a miscalibrated head; large
	// values push the command out of the actuation envelope).
	Bias float64
	// Latency is the simulated compute latency of the call [s], checked
	// against the guard's deterministic step budget.
	Latency float64
}

// Process is one episode's instantiated fault process.  Next is called
// once per planner invocation in nondecreasing time order.  It is not
// safe for concurrent use.
type Process interface {
	Next(t float64) Decision
}

// Model is an immutable description of a planner-fault process.
type Model interface {
	// Name identifies the model in tables and flags.
	Name() string
	// Validate reports whether the parameters are usable.
	Validate() error
	// New instantiates a fresh process.  Trigger decisions must draw
	// only from faultRng and magnitude draws only from latRng (consumed
	// every step), so the streams stay aligned across parameter sweeps.
	New(faultRng, latRng *rand.Rand) Process
}

// validProb rejects values outside [0, 1].
func validProb(name, field string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("faultinject: %s: %s %v outside [0,1]", name, field, p)
	}
	return nil
}

// None injects nothing (the explicit no-fault model, for sweeps).
type None struct{}

// Name implements Model.
func (None) Name() string { return "none" }

// Validate implements Model.
func (None) Validate() error { return nil }

// New implements Model.
func (None) New(_, _ *rand.Rand) Process { return nopProcess{} }

type nopProcess struct{}

func (nopProcess) Next(float64) Decision { return Decision{} }

// PanicEvery panics deterministically on every Nth planner call — the
// reproducible crash for regression tests and bisection.
type PanicEvery struct {
	// N is the crash period in calls (1 panics every call).
	N int
}

// Name implements Model.
func (PanicEvery) Name() string { return "panic-every" }

// Validate implements Model.
func (m PanicEvery) Validate() error {
	if m.N < 1 {
		return fmt.Errorf("faultinject: panic-every: period %d must be >= 1", m.N)
	}
	return nil
}

// New implements Model.
func (m PanicEvery) New(_, _ *rand.Rand) Process { return &panicEveryProcess{n: m.N} }

type panicEveryProcess struct{ n, calls int }

func (p *panicEveryProcess) Next(float64) Decision {
	p.calls++
	return Decision{Panic: p.calls%p.n == 0}
}

// PanicP panics i.i.d. with probability P per call.
type PanicP struct {
	P float64
}

// Name implements Model.
func (PanicP) Name() string { return "panic-p" }

// Validate implements Model.
func (m PanicP) Validate() error { return validProb("panic-p", "P", m.P) }

// New implements Model.
func (m PanicP) New(faultRng, _ *rand.Rand) Process {
	return &bernoulliProcess{p: m.P, rng: faultRng, make: func() Decision { return Decision{Panic: true} }}
}

// NaNOutput replaces the output with a non-finite value (cycling
// NaN → +Inf → −Inf) i.i.d. with probability P per call.
type NaNOutput struct {
	P float64
}

// Name implements Model.
func (NaNOutput) Name() string { return "nan" }

// Validate implements Model.
func (m NaNOutput) Validate() error { return validProb("nan", "P", m.P) }

// New implements Model.
func (m NaNOutput) New(faultRng, _ *rand.Rand) Process {
	return &bernoulliProcess{p: m.P, rng: faultRng, make: func() Decision { return Decision{NonFinite: true} }}
}

// bernoulliProcess fires a fixed decision i.i.d. with probability p.
type bernoulliProcess struct {
	p    float64
	rng  *rand.Rand
	make func() Decision
}

func (b *bernoulliProcess) Next(float64) Decision {
	if b.p > 0 && b.rng.Float64() < b.p {
		return b.make()
	}
	return Decision{}
}

// StuckOutput freezes the planner: with probability P per call it enters
// a stuck episode replaying the previous output for Hold calls.
type StuckOutput struct {
	P float64
	// Hold is the stuck-episode length in calls; 0 selects DefaultHold.
	Hold int
}

// DefaultHold is the default stuck-episode length.
const DefaultHold = 10

// Name implements Model.
func (StuckOutput) Name() string { return "stuck" }

// Validate implements Model.
func (m StuckOutput) Validate() error {
	if err := validProb("stuck", "P", m.P); err != nil {
		return err
	}
	if m.Hold < 0 {
		return fmt.Errorf("faultinject: stuck: negative hold %d", m.Hold)
	}
	return nil
}

// New implements Model.
func (m StuckOutput) New(faultRng, _ *rand.Rand) Process {
	hold := m.Hold
	if hold == 0 {
		hold = DefaultHold
	}
	return &stuckProcess{p: m.P, hold: hold, rng: faultRng}
}

type stuckProcess struct {
	p         float64
	hold      int
	remaining int
	rng       *rand.Rand
}

func (s *stuckProcess) Next(float64) Decision {
	if s.remaining > 0 {
		s.remaining--
		return Decision{Stuck: true}
	}
	if s.p > 0 && s.rng.Float64() < s.p {
		s.remaining = s.hold - 1
		return Decision{Stuck: true}
	}
	return Decision{}
}

// BiasOutput adds a constant bias to the output i.i.d. with probability P
// per call (a miscalibrated inference head; a bias beyond the envelope
// margin turns into guard range rejections).
type BiasOutput struct {
	// Bias is added to the planner's command [m/s²].
	Bias float64
	// P is the per-call probability the bias applies.
	P float64
}

// Name implements Model.
func (BiasOutput) Name() string { return "bias" }

// Validate implements Model.
func (m BiasOutput) Validate() error {
	if math.IsNaN(m.Bias) || math.IsInf(m.Bias, 0) {
		return fmt.Errorf("faultinject: bias: non-finite bias %v", m.Bias)
	}
	return validProb("bias", "P", m.P)
}

// New implements Model.
func (m BiasOutput) New(faultRng, _ *rand.Rand) Process {
	return &bernoulliProcess{p: m.P, rng: faultRng, make: func() Decision { return Decision{Bias: m.Bias} }}
}

// LatencySpike attributes a simulated compute latency drawn U(Min, Max)
// to the call i.i.d. with probability P — the inference-serving tail that
// blows the guard's deterministic step budget.
type LatencySpike struct {
	P        float64
	Min, Max float64 // spike latency range [s]
}

// Name implements Model.
func (LatencySpike) Name() string { return "latency" }

// Validate implements Model.
func (m LatencySpike) Validate() error {
	if err := validProb("latency", "P", m.P); err != nil {
		return err
	}
	if math.IsNaN(m.Min) || math.IsInf(m.Min, 0) || m.Min < 0 || math.IsNaN(m.Max) || math.IsInf(m.Max, 0) || m.Max < m.Min {
		return fmt.Errorf("faultinject: latency: bad range [%v, %v]", m.Min, m.Max)
	}
	return nil
}

// New implements Model.
func (m LatencySpike) New(faultRng, latRng *rand.Rand) Process {
	return &latencyProcess{m: m, faultRng: faultRng, latRng: latRng}
}

type latencyProcess struct {
	m        LatencySpike
	faultRng *rand.Rand
	latRng   *rand.Rand
}

func (l *latencyProcess) Next(float64) Decision {
	// Magnitude draw first and unconditionally, so sweeping P keeps the
	// spike durations of surviving faults aligned.
	lat := l.m.Min + l.latRng.Float64()*(l.m.Max-l.m.Min)
	if l.m.P > 0 && l.faultRng.Float64() < l.m.P {
		return Decision{Latency: lat}
	}
	return Decision{}
}

// Flaky gates an inner model through a two-state (good/bad) Markov chain:
// faults fire only during bad dwells, producing the bursty fail-recover
// pattern the guard's hysteresis exists for.  The inner process advances
// every call (its draws stay aligned whether or not the gate is open).
type Flaky struct {
	Inner Model
	// PGoodBad and PBadGood are the per-call transition probabilities.
	PGoodBad, PBadGood float64
	// StartBad starts the chain in the bad state.
	StartBad bool
}

// Name implements Model.
func (Flaky) Name() string { return "flaky" }

// Validate implements Model.
func (m Flaky) Validate() error {
	if m.Inner == nil {
		return fmt.Errorf("faultinject: flaky: nil inner model")
	}
	if err := m.Inner.Validate(); err != nil {
		return err
	}
	if err := validProb("flaky", "PGoodBad", m.PGoodBad); err != nil {
		return err
	}
	return validProb("flaky", "PBadGood", m.PBadGood)
}

// New implements Model.  The inner model gets derived substreams so the
// gate's own draws never interleave with the inner model's.
func (m Flaky) New(faultRng, latRng *rand.Rand) Process {
	inner := m.Inner.New(
		xrand.New(faultRng.Int63()),
		xrand.New(latRng.Int63()),
	)
	return &flakyProcess{inner: inner, m: m, bad: m.StartBad, rng: faultRng}
}

type flakyProcess struct {
	inner Process
	m     Flaky
	bad   bool
	rng   *rand.Rand
}

func (f *flakyProcess) Next(t float64) Decision {
	if f.bad {
		f.bad = !(f.rng.Float64() < f.m.PBadGood)
	} else {
		f.bad = f.rng.Float64() < f.m.PGoodBad
	}
	d := f.inner.Next(t) // always advance: keeps inner streams aligned
	if !f.bad {
		return Decision{}
	}
	return d
}

// Stack composes several models: per call, the decisions are merged
// (panic/non-finite/stuck OR together, biases sum, latencies sum — serial
// pipeline stages).  Each child gets derived substreams, so children
// never perturb each other's draws.
type Stack struct {
	Models []Model
}

// Name implements Model.
func (Stack) Name() string { return "stack" }

// Validate implements Model.
func (m Stack) Validate() error {
	if len(m.Models) == 0 {
		return fmt.Errorf("faultinject: stack: no models")
	}
	for i, c := range m.Models {
		if c == nil {
			return fmt.Errorf("faultinject: stack: nil model %d", i)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// New implements Model.
func (m Stack) New(faultRng, latRng *rand.Rand) Process {
	ps := make([]Process, len(m.Models))
	for i, c := range m.Models {
		ps[i] = c.New(
			xrand.New(faultRng.Int63()),
			xrand.New(latRng.Int63()),
		)
	}
	return stackProcess(ps)
}

type stackProcess []Process

func (s stackProcess) Next(t float64) Decision {
	var out Decision
	for _, p := range s {
		d := p.Next(t)
		out.Panic = out.Panic || d.Panic
		out.NonFinite = out.NonFinite || d.NonFinite
		out.Stuck = out.Stuck || d.Stuck
		out.Bias += d.Bias
		out.Latency += d.Latency
	}
	return out
}

// PanicError is the payload of an injected planner panic, so guard
// reports can distinguish injected crashes from genuine planner bugs.
type PanicError struct {
	T float64
}

// Error implements error.
func (e PanicError) Error() string {
	return fmt.Sprintf("faultinject: injected planner panic at t=%.3f", e.T)
}

// Injector owns one episode's instantiated fault process plus the
// output-corruption state (previous raw output for Stuck, the non-finite
// cycle, the last simulated latency).  It is not safe for concurrent
// use; episode runners create one per episode.
type Injector struct {
	proc     Process
	prev     float64
	hasPrev  bool
	nanCycle int
	latency  float64
}

// NewInjector instantiates m with the two caller-owned streams.
func NewInjector(m Model, faultRng, latRng *rand.Rand) (*Injector, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Injector{proc: m.New(faultRng, latRng)}, nil
}

// Apply runs one planner invocation under the fault model: it draws the
// step's Decision, panics with a PanicError when the decision says so
// (the guard recovers it), and otherwise returns the possibly corrupted
// output.  The simulated latency is recorded *before* panicking, so
// SimLatency is valid on every path.
func (in *Injector) Apply(t float64, plan func() (float64, bool)) (float64, bool) {
	d := in.proc.Next(t)
	in.latency = d.Latency
	if d.Panic {
		panic(PanicError{T: t})
	}
	a, em := plan()
	raw := a
	if d.Stuck && in.hasPrev {
		a = in.prev
	}
	a += d.Bias
	if d.NonFinite {
		switch in.nanCycle % 3 {
		case 0:
			a = math.NaN()
		case 1:
			a = math.Inf(1)
		default:
			a = math.Inf(-1)
		}
		in.nanCycle++
	}
	in.prev, in.hasPrev = raw, true
	return a, em
}

// SimLatency reports the simulated compute latency attributed to the
// most recent Apply [s] (zero before the first call).
func (in *Injector) SimLatency() float64 { return in.latency }
