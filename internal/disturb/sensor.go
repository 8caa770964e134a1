package disturb

import (
	"fmt"
	"math"
	"math/rand"

	"safeplan/internal/xrand"
)

// SensorDecision is the fate of one scheduled sensor reading.
type SensorDecision struct {
	// Drop skips the reading entirely (perception outage).
	Drop bool
	// Bias shifts every measured component by Bias·δ before the shifted
	// noise is clamped back into the sound ±δ envelope, as a fraction in
	// [−1, 1].  A bias of +1 pins readings to the top edge of the
	// interval — the worst sound sensor: maximally correlated error the
	// uniform-noise model never produces on its own, without ever
	// breaking the ±δ promise the filter's soundness rests on.
	Bias float64
}

// SensorProcess is one episode's instantiated sensor disturbance for a
// single observed vehicle.  Next is called once per scheduled reading in
// nondecreasing time order.  It is not safe for concurrent use.
type SensorProcess interface {
	Next(t float64) SensorDecision
}

// SensorModel is an immutable description of a sensor disturbance process.
type SensorModel interface {
	// Name identifies the model in tables and flags.
	Name() string
	// Validate reports whether the parameters are usable.
	Validate() error
	// NewSensor instantiates a fresh process drawing from rng.
	NewSensor(rng *rand.Rand) SensorProcess
}

// SensorNone is the undisturbed sensor.
type SensorNone struct{}

// Name implements SensorModel.
func (SensorNone) Name() string { return "none" }

// Validate implements SensorModel.
func (SensorNone) Validate() error { return nil }

// NewSensor implements SensorModel.
func (SensorNone) NewSensor(*rand.Rand) SensorProcess { return sensorNoneProcess{} }

type sensorNoneProcess struct{}

func (sensorNoneProcess) Next(float64) SensorDecision { return SensorDecision{} }

// BiasDrift drifts the measurement bias over episode time: a ramp of Rate
// fractions of δ per second clamped to ±Max, or — when Period is positive —
// a sinusoid of amplitude Max and that period.  It models a slowly
// miscalibrating perception stack whose error is *correlated* across
// readings, the case the i.i.d. uniform noise model is blind to.
type BiasDrift struct {
	Rate   float64 // drift rate [fraction of δ per second]
	Max    float64 // bias amplitude cap [fraction of δ], in [0, 1]
	Period float64 // if > 0, sinusoidal drift with this period [s]
}

// Name implements SensorModel.
func (BiasDrift) Name() string { return "bias-drift" }

// Validate implements SensorModel.
func (m BiasDrift) Validate() error {
	if math.IsNaN(m.Rate) || math.IsInf(m.Rate, 0) {
		return fmt.Errorf("disturb: bias-drift: bad rate %v", m.Rate)
	}
	if math.IsNaN(m.Max) || m.Max < 0 || m.Max > 1 {
		return fmt.Errorf("disturb: bias-drift: amplitude %v outside [0,1]", m.Max)
	}
	if math.IsNaN(m.Period) || m.Period < 0 {
		return fmt.Errorf("disturb: bias-drift: negative period %v", m.Period)
	}
	return nil
}

// NewSensor implements SensorModel.
func (m BiasDrift) NewSensor(*rand.Rand) SensorProcess { return biasDriftProcess{m} }

type biasDriftProcess struct{ m BiasDrift }

func (p biasDriftProcess) Next(t float64) SensorDecision {
	var b float64
	if p.m.Period > 0 {
		b = p.m.Max * math.Sin(2*math.Pi*t/p.m.Period)
	} else {
		b = p.m.Rate * t
		if b > p.m.Max {
			b = p.m.Max
		}
		if b < -p.m.Max {
			b = -p.m.Max
		}
	}
	return SensorDecision{Bias: b}
}

// SensorDropout is Gilbert–Elliott burst dropout on the reading schedule:
// the perception stack fails in bursts (sun glare, occlusion) rather than
// independently per frame.  Set the two drop probabilities equal for
// i.i.d. dropout.
type SensorDropout struct {
	PGoodBad float64 // per-reading transition probability good → bad
	PBadGood float64 // per-reading transition probability bad → good
	DropGood float64 // dropout probability in the good state
	DropBad  float64 // dropout probability in the bad state
}

// Name implements SensorModel.
func (SensorDropout) Name() string { return "sensor-dropout" }

// Validate implements SensorModel.
func (m SensorDropout) Validate() error {
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
	return nil
}

// NewSensor implements SensorModel.
func (m SensorDropout) NewSensor(rng *rand.Rand) SensorProcess {
	return &sensorDropoutProcess{m: m, rng: rng}
}

type sensorDropoutProcess struct {
	m   SensorDropout
	rng *rand.Rand
	bad bool
}

func (p *sensorDropoutProcess) Next(float64) SensorDecision {
	loss := p.m.DropGood
	flip := p.m.PGoodBad
	if p.bad {
		loss = p.m.DropBad
		flip = p.m.PBadGood
	}
	var d SensorDecision
	if loss > 0 && p.rng.Float64() < loss {
		d.Drop = true
	}
	if flip > 0 && p.rng.Float64() < flip {
		p.bad = !p.bad
	}
	return d
}

// SensorStack composes several sensor models: a reading is dropped when
// any layer drops it, and the layers' biases add (clamped to ±1).
type SensorStack struct {
	Models []SensorModel
}

// Name implements SensorModel.
func (m SensorStack) Name() string {
	s := "stack["
	for i, sm := range m.Models {
		if i > 0 {
			s += " "
		}
		s += sm.Name()
	}
	return s + "]"
}

// Validate implements SensorModel.
func (m SensorStack) Validate() error {
	if len(m.Models) == 0 {
		return fmt.Errorf("disturb: sensor stack: no models")
	}
	for i, sm := range m.Models {
		if sm == nil {
			return fmt.Errorf("disturb: sensor stack: nil model at %d", i)
		}
		if err := sm.Validate(); err != nil {
			return fmt.Errorf("disturb: sensor stack: model %d: %w", i, err)
		}
	}
	return nil
}

// NewSensor implements SensorModel.
func (m SensorStack) NewSensor(rng *rand.Rand) SensorProcess {
	procs := make([]SensorProcess, len(m.Models))
	for i, sm := range m.Models {
		procs[i] = sm.NewSensor(xrand.New(rng.Int63()))
	}
	return sensorStackProcess{procs}
}

type sensorStackProcess struct{ procs []SensorProcess }

func (p sensorStackProcess) Next(t float64) SensorDecision {
	var out SensorDecision
	for _, sp := range p.procs {
		d := sp.Next(t)
		out.Drop = out.Drop || d.Drop
		out.Bias += d.Bias
	}
	if out.Bias > 1 {
		out.Bias = 1
	}
	if out.Bias < -1 {
		out.Bias = -1
	}
	return out
}
