// Package sim closes the loop of the paper's evaluation (§V): it steps the
// ego and oncoming vehicles, the V2V channel with its disturbance model,
// the noisy onboard sensor, the information filter, and the agent (pure NN
// planner or compound planner) under a single deterministic seed, and
// scores each episode with the paper's evaluation function η.
package sim

import (
	"fmt"
	"math"

	"safeplan/internal/core"
	"safeplan/internal/guard"
	"safeplan/internal/leftturn"
	"safeplan/internal/telemetry"
	"safeplan/internal/traffic"
)

// Config assembles one simulation campaign's fixed parameters: the
// shared input stack (channel, sensor, information filter, horizon,
// guard and planner faults) and the left turn's own fields.
type Config struct {
	Scenario leftturn.Config // geometry, limits, control period
	Stack
	Driver traffic.DriverConfig

	// NoReplay disables the Kalman message rollback/replay while keeping
	// the filter itself (ablation; meaningful only with InfoFilter).
	NoReplay bool

	// SensorDropProb drops each scheduled sensor reading with this
	// probability (failure injection: a flaky perception stack).  It
	// composes with SensorDisturb — a reading is dropped when either says
	// so.
	SensorDropProb float64

	// OncomingScript, when non-empty, replaces the random driver with a
	// scripted per-control-step behavioural acceleration for the oncoming
	// vehicle (adversarial workloads, fuzzing); the last value holds
	// after the script is exhausted.  Values are clamped by the physical
	// envelope in dynamics.Step like any driver command.
	OncomingScript []float64

	// OncomingStartSpread is the width of the initial-position sweep: each
	// episode starts C1 at OncomingInit.P − U(0, spread) (the paper's
	// p1(0) ∈ {50.5 + 0.5j | j = 0..19} becomes spread 9.5 m on the
	// mirrored axis).  Zero keeps the configured start.
	OncomingStartSpread float64
	// OncomingSpeedMin/Max sample the initial oncoming speed; both zero
	// keeps the configured OncomingInit.V.
	OncomingSpeedMin, OncomingSpeedMax float64

	// Certify, when non-nil, enables verified mode: each clean
	// non-emergency planner command is cross-checked against the
	// IBP-certified output range of the planner network over the sound
	// estimate, and misses are counted in Result / guard / campaign
	// stats.  See CertifyConfig; nil keeps the point-evaluation hot path
	// byte-identical.
	Certify *CertifyConfig
}

// DefaultHorizon cuts an episode after 30 simulated seconds.
const DefaultHorizon = 30

// DefaultConfig returns the evaluation defaults documented in
// EXPERIMENTS.md: the default stack with a 30 s horizon, C1's paper start
// sweep, and initial speeds 7–15 m/s.
func DefaultConfig() Config {
	c := Config{
		Scenario:            leftturn.DefaultConfig(),
		Stack:               DefaultStack(),
		Driver:              traffic.DefaultDriverConfig(),
		OncomingStartSpread: 9.5,
		OncomingSpeedMin:    7,
		OncomingSpeedMax:    15,
	}
	c.Horizon = DefaultHorizon
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if err := c.Stack.Validate(c.Scenario.Ego); err != nil {
		return err
	}
	if err := c.Driver.Validate(); err != nil {
		return err
	}
	if err := CheckFinite("sim",
		Field{"SensorDropProb", c.SensorDropProb},
		Field{"OncomingStartSpread", c.OncomingStartSpread},
		Field{"OncomingSpeedMin", c.OncomingSpeedMin},
		Field{"OncomingSpeedMax", c.OncomingSpeedMax},
	); err != nil {
		return err
	}
	if c.OncomingStartSpread < 0 {
		return fmt.Errorf("sim: negative start spread")
	}
	if c.OncomingSpeedMin > c.OncomingSpeedMax {
		return fmt.Errorf("sim: oncoming speed range reversed")
	}
	if c.SensorDropProb < 0 || c.SensorDropProb > 1 {
		return fmt.Errorf("sim: sensor drop probability %v outside [0,1]", c.SensorDropProb)
	}
	for i, a := range c.OncomingScript {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("sim: oncoming script step %d is %v", i, a)
		}
	}
	if c.Certify != nil {
		if err := c.Certify.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ScriptAccel returns the scripted behavioural acceleration for a control
// step, holding the final value once the script is exhausted.  Exported
// for the sibling scenario packages' runners.
func ScriptAccel(script []float64, step int) float64 {
	if step >= len(script) {
		return script[len(script)-1]
	}
	return script[step]
}

// Sample is one trace row (recorded when Options.Trace is set).
type Sample struct {
	T float64

	EgoP, EgoV, EgoA float64
	OncP, OncV, OncA float64 // ground truth

	MeasP, MeasV   float64 // latest raw sensor reading (NaN before the first)
	EstP, EstV     float64 // fused point estimates
	EstPLo, EstPHi float64 // fused position interval
	EstVLo, EstVHi float64 // fused velocity interval

	SoundPLo, SoundPHi float64 // sound position interval
	SoundVLo, SoundVHi float64 // sound velocity interval
	SoundLo, SoundHi   float64 // conservative window over the sound estimate

	ConsLo, ConsHi float64 // conservative window (relative times)
	AggrLo, AggrHi float64 // aggressive window (relative times)

	Emergency bool
}

// Result scores one episode.
type Result struct {
	Reached   bool
	ReachTime float64
	Collided  bool
	Eta       float64

	Steps          int
	EmergencySteps int

	// FusedIntervalMisses counts steps where the fused interval failed to
	// contain the true oncoming state.  The fused pair is deliberately
	// non-guaranteed — the Kalman component trades containment for width —
	// so misses are expected sharpening error, not a safety defect
	// (diagnostic; 0 without the Kalman component, near 0 with it).
	// Previously (mis)named SoundnessViolations.
	FusedIntervalMisses int

	// SoundViolations counts steps where the *sound* interval pair
	// (Estimate.SoundP/SoundV) failed to contain the true state — the same
	// predicate as the SoundEstimate invariant.  A nonzero count is a
	// genuine soundness-contract violation and must be 0 in every
	// configuration.
	SoundViolations int

	// Guard aggregates the planner-fault guard's activity for the episode.
	// All-zero (with WorstState/FinalState Nominal) when no guard is
	// configured.
	Guard guard.EpisodeStats

	// CertifiedSteps counts executed κ_n commands cross-checked against
	// the IBP certified range; CertifiedRangeMisses counts those that
	// fell outside it.  Both zero unless Config.Certify enabled verified
	// mode.  A nonzero miss count on a clean run means the certified
	// range or its wiring is wrong — the ibp-gate pins it at zero.
	CertifiedSteps       int
	CertifiedRangeMisses int

	// Links carries the per-link chain statistics of a platoon episode
	// (internal/platoon): entry ℓ describes the link from vehicle ℓ to
	// vehicle ℓ+1.  Populated only for chains longer than one link
	// (Vehicles > 2), so a two-vehicle platoon episode serializes
	// byte-identically to the car-following episode it reproduces.
	Links []LinkStats `json:",omitempty"`

	Trace []Sample
}

// LinkStats scores one inter-vehicle link of a platoon episode.
type LinkStats struct {
	// MinGap is the smallest observed bumper gap over the episode [m].
	MinGap float64
	// PeakGapErr is the peak absolute deviation of the gap from its
	// initial (equilibrium) value [m] — the per-link amplitude the
	// string-stability invariant compares down the chain.
	PeakGapErr float64
	// EmergencySteps counts control steps in which this link's follower
	// commanded emergency braking (always 0 for link 0, whose follower is
	// the NN vehicle scored by Result.EmergencySteps).
	EmergencySteps int
}

// EmergencyFrequency is the fraction of control steps commanded by κ_e.
func (r Result) EmergencyFrequency() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.EmergencySteps) / float64(r.Steps)
}

// Options selects per-episode behaviour.
type Options struct {
	Seed int64 // master seed; every random stream derives from it

	// Trace records one Sample per control step in Result.Trace.  A row
	// describes the first oncoming vehicle (sender 1): the left turn's one
	// vehicle, and vehicle 1 of a multi-vehicle stream, whose other
	// vehicles are not traced.
	Trace bool

	// Collector receives telemetry probes (per-step, per-episode).  Nil
	// disables telemetry: the loop then pays one nil-check per probe
	// site and skips the wall-clock reads entirely.  The campaign runner
	// shares one collector across workers, so it must be concurrency-safe
	// (telemetry.Metrics is).
	Collector telemetry.Collector

	// Invariants are runtime checkers evaluated once per control step
	// (per observed vehicle) and once per finished episode.  A violation
	// aborts the episode with a *ViolationError.  Checkers must be
	// stateless: the campaign runner shares them across workers.
	Invariants []Invariant

	// Scratch is the episode-scoped arena the runner draws per-episode
	// objects (the engine itself, rand streams, channel, sensor, driver,
	// fusion filter, Poll buffer) from; nil gets a fresh arena per
	// episode.  The episode is bit-identical either way.  A Scratch serves
	// one episode at a time: campaign workers keep one per shard and must
	// not share it between concurrently running episodes.
	Scratch *Scratch
}

// Run simulates one single-vehicle left-turn episode of agent under cfg
// and returns its Result: the oncoming stream with one track (see
// NewStepper).
func Run(cfg Config, agent core.Agent, opts Options) (Result, error) {
	return run(NewStepper(cfg, agent, opts))
}
