package traffic

import (
	"fmt"
	"math/rand"

	"safeplan/internal/dynamics"
)

// StopAndGoConfig shapes a lead vehicle that alternates cruising with
// occasional hard-braking episodes — the adversarial workload for the
// car-following case study (a tailgating planner is only unsafe if the
// lead sometimes brakes hard).
type StopAndGoConfig struct {
	VCruiseMin, VCruiseMax float64 // cruise target range [m/s]
	CruiseMin, CruiseMax   float64 // cruise phase duration range [s]
	BrakeProb              float64 // probability a phase change starts a hard brake
	BrakeAccel             float64 // hard-brake deceleration (negative) [m/s²]
	BrakeToVMax            float64 // hard brakes aim at a speed in [0, BrakeToVMax]
	Response               float64 // cruise speed-tracking time constant [s]
}

// DefaultStopAndGoConfig brakes hard (−5 m/s²) on about a quarter of phase
// changes, down to walking speed or a full stop.
func DefaultStopAndGoConfig() StopAndGoConfig {
	return StopAndGoConfig{
		VCruiseMin:  6,
		VCruiseMax:  14,
		CruiseMin:   1.5,
		CruiseMax:   4.0,
		BrakeProb:   0.25,
		BrakeAccel:  -5,
		BrakeToVMax: 3,
		Response:    0.6,
	}
}

// Validate reports whether the configuration is usable.
func (c StopAndGoConfig) Validate() error {
	switch {
	case c.VCruiseMin < 0 || c.VCruiseMin > c.VCruiseMax:
		return fmt.Errorf("traffic: bad cruise speed range [%v, %v]", c.VCruiseMin, c.VCruiseMax)
	case c.CruiseMin <= 0 || c.CruiseMin > c.CruiseMax:
		return fmt.Errorf("traffic: bad cruise durations [%v, %v]", c.CruiseMin, c.CruiseMax)
	case c.BrakeProb < 0 || c.BrakeProb > 1:
		return fmt.Errorf("traffic: brake probability %v outside [0,1]", c.BrakeProb)
	case c.BrakeAccel >= 0:
		return fmt.Errorf("traffic: brake accel %v must be negative", c.BrakeAccel)
	case c.BrakeToVMax < 0:
		return fmt.Errorf("traffic: negative brake target %v", c.BrakeToVMax)
	case c.Response <= 0:
		return fmt.Errorf("traffic: non-positive response time")
	}
	return nil
}

// StopAndGo generates the lead vehicle's acceleration.  Not safe for
// concurrent use.
type StopAndGo struct {
	cfg StopAndGoConfig
	rng *rand.Rand

	started  bool
	braking  bool
	vTarget  float64
	phaseEnd float64
}

// NewStopAndGo creates a stop-and-go driver drawing randomness from rng.
func NewStopAndGo(cfg StopAndGoConfig, rng *rand.Rand) (*StopAndGo, error) {
	d := &StopAndGo{}
	if err := d.Reset(cfg, rng); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initialises the driver in place for a new episode; behaviour is
// identical to a freshly constructed StopAndGo.
func (d *StopAndGo) Reset(cfg StopAndGoConfig, rng *rand.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("traffic: nil rng")
	}
	*d = StopAndGo{cfg: cfg, rng: rng}
	return nil
}

// Accel returns the behavioural acceleration at time t for state s.
func (d *StopAndGo) Accel(t float64, s dynamics.State) float64 {
	if !d.started || t >= d.phaseEnd || (d.braking && s.V <= d.vTarget+0.05) {
		d.started = true
		if !d.braking && d.rng.Float64() < d.cfg.BrakeProb {
			// Begin a hard brake down to a low speed.
			d.braking = true
			d.vTarget = d.rng.Float64() * d.cfg.BrakeToVMax
			d.phaseEnd = t + 8 // safety net; usually ends on reaching vTarget
		} else {
			d.braking = false
			d.vTarget = d.cfg.VCruiseMin + d.rng.Float64()*(d.cfg.VCruiseMax-d.cfg.VCruiseMin)
			d.phaseEnd = t + d.cfg.CruiseMin + d.rng.Float64()*(d.cfg.CruiseMax-d.cfg.CruiseMin)
		}
	}
	if d.braking {
		if s.V > d.vTarget {
			return d.cfg.BrakeAccel
		}
		return 0
	}
	a := (d.vTarget - s.V) / d.cfg.Response
	if a > 2.5 {
		a = 2.5
	}
	if a < d.cfg.BrakeAccel {
		a = d.cfg.BrakeAccel
	}
	return a
}
