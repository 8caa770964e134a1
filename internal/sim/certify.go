package sim

import (
	"fmt"

	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/nn/ibp"
)

// CertifyConfig enables verified mode: every clean non-emergency planner
// command is cross-checked against the IBP-certified output range of the
// planner network over the *sound* estimate — "could any state consistent
// with what we soundly know have produced this command?".  Misses are
// counted (episode Result, guard stats, campaign stats, telemetry), not
// substituted: the monitor envelope remains the enforcement layer, the
// certified range is a diagnostic over-approximation.
//
// The propagator must be built (ibp.New) from the same network and
// normalizer the episode's agent actually runs, and Limits must match the
// planner's actuation clamp; otherwise misses measure the configuration
// mismatch, not a defect.  Verified mode covers the single-vehicle left
// turn (NewStepper) with a *core.PureNN or a *core.Compound over an NN
// planner; construction refuses any other agent, and MultiConfig refuses
// Certify for the oncoming stream.
//
// Point evaluation stays on the hot path: a nil Certify skips every part
// of this machinery, and the episode bytes are identical with and without
// the field (the check only reads state the step already computes).
type CertifyConfig struct {
	// Prop is the interval propagator over the planner network.  A
	// Propagator is immutable and safe to share across campaign workers.
	Prop *ibp.Propagator

	// Limits is the actuation clamp the planner applies to the network
	// output (planner.NNPlanner clamps to its Limits).  Zero value: the
	// scenario's ego limits.
	Limits dynamics.Limits
}

// validate checks the verified-mode configuration against the scenario.
func (c *CertifyConfig) validate() error {
	if c.Prop == nil {
		return fmt.Errorf("sim: Certify.Prop is nil")
	}
	if c.Prop.InputDim() != leftturn.FeatureCount {
		return fmt.Errorf("sim: Certify.Prop wants %d inputs, planner features are %d",
			c.Prop.InputDim(), leftturn.FeatureCount)
	}
	if c.Prop.OutputDim() != 1 {
		return fmt.Errorf("sim: Certify.Prop has %d outputs, planners emit 1", c.Prop.OutputDim())
	}
	return nil
}

// certifier is the per-stepper verified-mode state: the propagator, the
// agent-shape facts the range computation needs, and the reusable
// buffers.  It lives inside the pooled engine; the shared CertifyConfig
// stays read-only.
type certifier struct {
	prop *ibp.Propagator
	lim  dynamics.Limits

	// Agent shape, fixed at construction: which window feeds κ_n, and the
	// monitor clamp to lift over the range (Compound only).  The monitor
	// is stateless (a pure value), so holding a copy reproduces the
	// agent's verdict exactly.
	aggressive bool
	clamp      bool
	monFused   bool
	mon        monitor.Monitor

	scr *ibp.Scratch
	box [leftturn.FeatureCount]interval.Interval
	out [1]interval.Interval

	// Per-step stash: the last computed range, read by the guard hook and
	// the telemetry probe without recomputation.
	lo, hi float64
	ok     bool
}

// init (re)configures the per-stepper verified-mode state for agent,
// rejecting agent types whose command the certified range does not
// describe; agent is the left turn's single-vehicle agent (nil on the
// oncoming stream).  The receiver's scratch is reused when present, so a
// pooled engine re-enters verified mode without allocating.
func (c *certifier) init(cfg *CertifyConfig, ego dynamics.Limits, agent core.Agent) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	c.prop, c.lim = cfg.Prop, cfg.Limits
	if c.lim == (dynamics.Limits{}) {
		c.lim = ego
	}
	c.aggressive, c.clamp, c.monFused = false, false, false
	c.mon = monitor.Monitor{}
	switch ag := agent.(type) {
	case *core.PureNN:
		// κ_n alone over the conservative window; no monitor clamp.
	case *core.Compound:
		c.aggressive = ag.AggressiveSet
		c.clamp = true
		c.monFused = ag.MonitorOnFused
		c.mon = ag.Monitor
	case nil:
		return fmt.Errorf("sim: Certify is implemented for the single-vehicle left turn only")
	default:
		return fmt.Errorf("sim: Certify does not support agent type %T", agent)
	}
	if c.scr == nil {
		c.scr = cfg.Prop.NewScratch()
	}
	return nil
}

// rangeAt computes the certified command range for the current step: the
// feature box over the sound estimate is propagated through the network,
// clamped by the actuation limits exactly as the planner clamps its
// output, and — for the compound agent — clipped by the recomputed
// monitor verdict (Outcome.Apply is a monotone clip, so containment is
// preserved).  ok=false when the executed command is not κ_n's to
// certify (the compound monitor demanded κ_e this step).
func (c *certifier) rangeAt(t float64, ego dynamics.State, sc *leftturn.Config, know core.Knowledge) (lo, hi float64, ok bool) {
	if c.clamp {
		monEst := know.Sound
		if c.monFused {
			monEst = know.Fused
		}
		verdict := c.mon.Assess(ego, sc.ConservativeWindow(monEst))
		if verdict.Emergency {
			return 0, 0, false
		}
		defer func() {
			lo, hi = verdict.Apply(lo), verdict.Apply(hi)
		}()
	}
	sc.FeatureBoxInto(c.box[:], t, ego, know.Sound, c.aggressive)
	c.prop.PredictIntervalInto(c.out[:], c.box[:], c.scr)
	lo, hi = c.out[0].Lo, c.out[0].Hi
	if lo < c.lim.AMin {
		lo = c.lim.AMin
	}
	if lo > c.lim.AMax {
		lo = c.lim.AMax
	}
	if hi < c.lim.AMin {
		hi = c.lim.AMin
	}
	if hi > c.lim.AMax {
		hi = c.lim.AMax
	}
	return lo, hi, true
}
