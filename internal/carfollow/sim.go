package carfollow

import (
	"fmt"
	"math"

	"safeplan/internal/sim"
	"safeplan/internal/traffic"
)

// SimConfig assembles a car-following campaign: the scenario constants,
// the input stack (identical to the left-turn study), and the
// stop-and-go lead workload.
type SimConfig struct {
	Scenario Config
	sim.Stack
	Lead traffic.StopAndGoConfig

	// LeadSpeedMin/Max sample the initial lead speed; the ego starts at
	// the same speed so episodes begin in equilibrium.
	LeadSpeedMin, LeadSpeedMax float64

	// LeadScript, when non-empty, replaces the stochastic stop-and-go
	// lead with a scripted per-control-step acceleration sequence (the
	// last value holds beyond its end).  Used by fuzzing to search lead
	// behaviours directly.
	LeadScript []float64
}

// DefaultHorizon bounds a car-following episode (the ~400 m course takes
// ~40 s at typical speeds).
const DefaultHorizon = 90

// DefaultSimConfig returns the car-following evaluation defaults: the
// default stack with a 90 s horizon and lead speeds 6–14 m/s.
func DefaultSimConfig() SimConfig {
	c := SimConfig{
		Scenario:     DefaultConfig(),
		Stack:        sim.DefaultStack(),
		Lead:         traffic.DefaultStopAndGoConfig(),
		LeadSpeedMin: 6,
		LeadSpeedMax: 14,
	}
	c.Horizon = DefaultHorizon
	return c
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if err := c.Stack.Validate(c.Scenario.Ego); err != nil {
		return err
	}
	if err := c.Lead.Validate(); err != nil {
		return err
	}
	if err := sim.CheckFinite("carfollow",
		sim.Field{Name: "LeadSpeedMin", V: c.LeadSpeedMin},
		sim.Field{Name: "LeadSpeedMax", V: c.LeadSpeedMax},
	); err != nil {
		return err
	}
	if c.LeadSpeedMin > c.LeadSpeedMax || c.LeadSpeedMin < 0 {
		return fmt.Errorf("carfollow: bad lead speed range")
	}
	for i, a := range c.LeadScript {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("carfollow: lead script entry %d is %v", i, a)
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
