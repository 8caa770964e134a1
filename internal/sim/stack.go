package sim

import (
	"fmt"
	"math"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/sensor"
)

// Stack is the input stack under the planner that every scenario shares:
// the disturbed V2V channel and the onboard sensor of each link, the
// information filter over both, the episode cutoff, and the guard and
// fault wiring around κ_n.  Config (the left turn and the oncoming
// stream) and carfollow.SimConfig (car following and the platoon) embed
// it; the Engine opens every link from it (OpenLink, OpenSensing) and
// arms the guard and the schedule from it (Arm).
type Stack struct {
	// Comms is the V2V channel's disturbance setting.
	Comms comms.Config
	// Sensor is the onboard sensor's noise bound.
	Sensor sensor.Config

	DtM float64 // message transmission period Δt_m [s]
	DtS float64 // sensing period Δt_s [s]

	// InfoFilter enables the Kalman component (with message replay) in the
	// fusion filter — the paper's information filter.  Off for the pure
	// and basic configurations, on for the ultimate one.
	InfoFilter bool

	// Horizon is the episode cutoff [s]; 0 selects the scenario's default
	// (DefaultHorizon, carfollow.DefaultHorizon).
	Horizon float64

	// SensorDisturb, when non-nil, disturbs the sensing schedule beyond
	// i.i.d. dropout: burst dropout and sound bias drift (see
	// internal/disturb).  Readings stay inside the sound ±δ envelope.  The
	// channel-side counterpart lives in Comms.Model.
	SensorDisturb disturb.SensorModel

	// Guard, when non-nil, wraps every planner invocation in the
	// compute-fault containment layer (internal/guard): panics are
	// recovered, non-finite or out-of-range accelerations rejected, and
	// deadline overruns detected, each falling back to the last validated
	// action or κ_e.  Zero Limits are filled from the scenario's ego
	// limits.
	Guard *guard.Config

	// PlannerFault, when non-nil, injects compute faults into the planner
	// (internal/faultinject): panics, NaN outputs, stuck or biased
	// actuation, latency spikes.  A guard is installed automatically
	// (guard.DefaultConfig) when none is configured — injected panics must
	// never escape an episode.  The injector's random streams derive from
	// the master seed after every other stream, so configurations without
	// a fault model keep their exact per-seed behaviour.
	PlannerFault faultinject.Model
}

// DefaultStack returns the evaluation defaults documented in
// EXPERIMENTS.md: perfect comms, sensor δ = 1 and Δt_m = Δt_s = 0.1 s,
// with the scenario's default horizon.
func DefaultStack() Stack {
	return Stack{
		Comms:  comms.NoDisturbance(),
		Sensor: sensor.Uniform(1),
		DtM:    0.1,
		DtS:    0.1,
	}
}

// Validate checks the stack; ego is the scenario's ego limits, which fill
// a guard configured without its own.
func (s Stack) Validate(ego dynamics.Limits) error {
	if err := s.Comms.Validate(); err != nil {
		return err
	}
	if err := s.Sensor.Validate(); err != nil {
		return err
	}
	if err := CheckFinite("sim", Field{"DtM", s.DtM}, Field{"DtS", s.DtS}, Field{"Horizon", s.Horizon}); err != nil {
		return err
	}
	if s.DtM <= 0 || s.DtS <= 0 {
		return fmt.Errorf("sim: non-positive periods DtM=%v DtS=%v", s.DtM, s.DtS)
	}
	if s.Horizon < 0 {
		return fmt.Errorf("sim: negative horizon %v", s.Horizon)
	}
	if s.SensorDisturb != nil {
		if err := s.SensorDisturb.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if s.Guard != nil {
		g := *s.Guard
		if g.Limits == (dynamics.Limits{}) {
			g.Limits = ego // newGuardedStep applies the same fill
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if s.PlannerFault != nil {
		if err := s.PlannerFault.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Field is a configuration field's name and value, for CheckFinite.
type Field struct {
	Name string
	V    float64
}

// CheckFinite returns an error, prefixed with pkg, naming the first field
// whose value is NaN or infinite.  NaN compares false with every ordering
// operator, so a range check alone would silently accept a NaN field:
// every Validate rejects non-finite values with it first.
func CheckFinite(pkg string, fields ...Field) error {
	for _, f := range fields {
		if math.IsNaN(f.V) || math.IsInf(f.V, 0) {
			return fmt.Errorf("%s: %s is %v (must be finite)", pkg, f.Name, f.V)
		}
	}
	return nil
}
