package carfollow

import (
	"fmt"
	"math"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/traffic"
)

// SimConfig assembles a car-following campaign: the scenario constants,
// the communication/sensing stack (identical to the left-turn study), and
// the stop-and-go lead workload.
type SimConfig struct {
	Scenario Config
	Comms    comms.Config
	Sensor   sensor.Config
	Lead     traffic.StopAndGoConfig

	DtM float64 // message transmission period [s]
	DtS float64 // sensing period [s]

	// InfoFilter enables the Kalman component with replay.
	InfoFilter bool

	Horizon float64 // episode cutoff [s]; 0 selects DefaultHorizon

	// LeadSpeedMin/Max sample the initial lead speed; the ego starts at
	// the same speed so episodes begin in equilibrium.
	LeadSpeedMin, LeadSpeedMax float64

	// SensorDisturb, when non-nil, injects adversarial sensing faults
	// (bias drift, bursty dropout — see internal/disturb).  Readings stay
	// inside the sound ±δ envelope.
	SensorDisturb disturb.SensorModel

	// LeadScript, when non-empty, replaces the stochastic stop-and-go
	// lead with a scripted per-control-step acceleration sequence (the
	// last value holds beyond its end).  Used by fuzzing to search lead
	// behaviours directly.
	LeadScript []float64

	// Guard, when non-nil, wraps every planner invocation in the
	// compute-fault containment layer (internal/guard).  Zero Limits are
	// filled from Scenario.Ego.
	Guard *guard.Config

	// PlannerFault, when non-nil, injects compute faults into the planner
	// (internal/faultinject).  A default guard is installed automatically
	// when none is configured, and the injector's random streams derive
	// from the master seed after every legacy stream (same compatibility
	// rule as the left-turn runner).
	PlannerFault faultinject.Model
}

// DefaultHorizon bounds a car-following episode (the ~400 m course takes
// ~40 s at typical speeds).
const DefaultHorizon = 90

// DefaultSimConfig returns the car-following evaluation defaults.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Scenario:     DefaultConfig(),
		Comms:        comms.NoDisturbance(),
		Sensor:       sensor.Uniform(1),
		Lead:         traffic.DefaultStopAndGoConfig(),
		DtM:          0.1,
		DtS:          0.1,
		Horizon:      DefaultHorizon,
		LeadSpeedMin: 6,
		LeadSpeedMax: 14,
	}
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if err := c.Comms.Validate(); err != nil {
		return err
	}
	if err := c.Sensor.Validate(); err != nil {
		return err
	}
	if err := c.Lead.Validate(); err != nil {
		return err
	}
	// NaN compares false with every ordering operator, so the range checks
	// below would silently accept NaN fields; reject non-finite values
	// explicitly first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DtM", c.DtM}, {"DtS", c.DtS}, {"Horizon", c.Horizon},
		{"LeadSpeedMin", c.LeadSpeedMin}, {"LeadSpeedMax", c.LeadSpeedMax},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("carfollow: %s is %v (must be finite)", f.name, f.v)
		}
	}
	if c.DtM <= 0 || c.DtS <= 0 {
		return fmt.Errorf("carfollow: non-positive periods")
	}
	if c.Horizon < 0 {
		return fmt.Errorf("carfollow: negative horizon")
	}
	if c.LeadSpeedMin > c.LeadSpeedMax || c.LeadSpeedMin < 0 {
		return fmt.Errorf("carfollow: bad lead speed range")
	}
	if c.SensorDisturb != nil {
		if err := c.SensorDisturb.Validate(); err != nil {
			return fmt.Errorf("carfollow: %w", err)
		}
	}
	for i, a := range c.LeadScript {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("carfollow: lead script entry %d is %v", i, a)
		}
	}
	if c.Guard != nil {
		g := *c.Guard
		if g.Limits == (dynamics.Limits{}) {
			g.Limits = c.Scenario.Ego // the runner applies the same fill
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("carfollow: %w", err)
		}
	}
	if c.PlannerFault != nil {
		if err := c.PlannerFault.Validate(); err != nil {
			return fmt.Errorf("carfollow: %w", err)
		}
	}
	return nil
}

// RunEpisode simulates one car-following episode under the shared episode
// options (trace recording, telemetry collector).  Like sim.Run it is a
// thin closed loop over the resumable Stepper engine.
func RunEpisode(cfg SimConfig, agent Agent, opts sim.Options) (sim.Result, error) {
	st, err := NewStepper(cfg, agent, opts)
	if err != nil {
		return sim.Result{}, err
	}
	return st.Run()
}
