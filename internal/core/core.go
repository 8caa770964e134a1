// Package core implements the paper's primary contribution: the compound
// planner κ_c (§III, Fig. 2).  Given any NN-based planner κ_n, the compound
// planner wires together
//
//   - the runtime monitor, which selects the emergency planner exactly when
//     the current state is in the boundary safe set (internal/monitor),
//   - the emergency planner κ_e of the scenario (leftturn.EmergencyAccel),
//   - and the aggressive unsafe-set estimation (leftturn.AggressiveWindow),
//     which feeds κ_n a compact window while the monitor keeps using the
//     sound conservative one.
//
// The information filter lives upstream (internal/fusion): the compound
// planner consumes its output as a leftturn.OncomingEstimate each step, so
// the same Agent works under any communication setting.
package core

import (
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/planner"
	"safeplan/internal/telemetry"
)

// Knowledge is what the information filter delivers each control step:
// a guaranteed (sound) estimate for the safety machinery and the sharpest
// available estimate for the efficiency machinery.  Without the Kalman
// component the two coincide.
type Knowledge struct {
	// Sound is guaranteed to contain the true oncoming state; the runtime
	// monitor's unsafe-set estimation uses it, which is what makes the
	// safety guarantee unconditional.
	Sound leftturn.OncomingEstimate
	// Fused is the sharpest estimate (Kalman-joined when the information
	// filter is enabled); the embedded planner's unsafe-set input uses it.
	Fused leftturn.OncomingEstimate
}

// Agent is a closed-loop decision maker: each control step it receives the
// time, the ego state, and the filter knowledge about the oncoming vehicle,
// and returns the commanded acceleration plus whether the emergency planner
// produced it.
type Agent interface {
	// Name identifies the agent in results tables.
	Name() string
	// Accel returns the acceleration command and an emergency flag.
	Accel(t float64, ego dynamics.State, k Knowledge) (a float64, emergency bool)
}

// PureNN runs the embedded planner alone — no monitor, no emergency
// planner — exactly the baseline κ_n of the paper's evaluation.  The
// planner receives the conservative window over the estimate (the standard
// unsafe-set estimation).
type PureNN struct {
	Cfg     leftturn.Config
	Planner planner.Planner
}

// Name implements Agent.
func (p *PureNN) Name() string { return "pure:" + p.Planner.Name() }

// Accel implements Agent.
func (p *PureNN) Accel(t float64, ego dynamics.State, k Knowledge) (float64, bool) {
	w := p.Cfg.ConservativeWindow(k.Fused)
	return p.Planner.Accel(t, ego, w), false
}

// Compound is the paper's compound planner κ_c.
type Compound struct {
	Cfg     leftturn.Config
	Planner planner.Planner
	Monitor monitor.Monitor

	// AggressiveSet selects the aggressive unsafe-set estimation (Eq. 8)
	// for the embedded planner's input.  The monitor always uses the
	// conservative set regardless.
	AggressiveSet bool

	// MonitorOnFused makes the runtime monitor consume the fused (Kalman-
	// joined) estimate instead of the sound one — the paper's literal
	// design, in which the information filter output feeds the monitor
	// directly.  This trades the unconditional guarantee for a sharper
	// unsafe set; it exists for the ablation study only.
	MonitorOnFused bool

	// Collector, when non-nil, receives the monitor's selection reason
	// every control step (telemetry.ReasonPlanner when κ_n keeps
	// control).  Shared campaign collectors must be concurrency-safe.
	Collector telemetry.Collector

	label string
}

// NewBasic builds the basic compound design of the evaluation: runtime
// monitor and emergency planner only (κ_cb).  Pair it with a fusion filter
// that has the Kalman component disabled.
func NewBasic(cfg leftturn.Config, p planner.Planner) *Compound {
	return &Compound{
		Cfg:     cfg,
		Planner: p,
		Monitor: monitor.New(cfg),
		label:   "basic:" + p.Name(),
	}
}

// NewUltimate builds the ultimate compound design (κ_cu): monitor,
// emergency planner, and aggressive unsafe-set estimation.  Pair it with a
// fusion filter that has the Kalman component (information filter) enabled.
func NewUltimate(cfg leftturn.Config, p planner.Planner) *Compound {
	return &Compound{
		Cfg:           cfg,
		Planner:       p,
		Monitor:       monitor.New(cfg),
		AggressiveSet: true,
		label:         "ultimate:" + p.Name(),
	}
}

// Name implements Agent.
func (c *Compound) Name() string {
	if c.label != "" {
		return c.label
	}
	return "compound:" + c.Planner.Name()
}

// Accel implements Agent: the runtime monitor assesses the conservative
// window over the *sound* estimate (the fused one with MonitorOnFused),
// and AccelVerdict acts on its verdict.
func (c *Compound) Accel(t float64, ego dynamics.State, k Knowledge) (float64, bool) {
	monEst := k.Sound
	if c.MonitorOnFused {
		monEst = k.Fused
	}
	return c.AccelVerdict(t, ego, &k, c.Monitor.Assess(ego, c.Cfg.ConservativeWindow(monEst)))
}

// AccelVerdict is Accel on a verdict the caller has already assessed:
// it must be c.Monitor's on the conservative window over the estimate
// Accel would pick.  On an emergency verdict κ_e takes over, otherwise
// κ_n plans against its window over the fused estimate (aggressive when
// AggressiveSet), subject to the monitor's commitment guards.  The
// left-turn engine calls it with the one verdict it assesses per step
// for the guard and the certifier as well.
func (c *Compound) AccelVerdict(t float64, ego dynamics.State, k *Knowledge, verdict monitor.Outcome) (float64, bool) {
	if c.Collector != nil {
		reason := verdict.Reason
		if !verdict.Emergency {
			reason = telemetry.ReasonPlanner
		}
		c.Collector.OnMonitorDecision(reason)
	}
	if verdict.Emergency {
		return c.Cfg.EmergencyAccel(ego), true
	}
	var w interval.Interval
	if c.AggressiveSet {
		w = c.Cfg.AggressiveWindow(k.Fused)
	} else {
		w = c.Cfg.ConservativeWindow(k.Fused)
	}
	a := c.Planner.Accel(t, ego, w)
	return verdict.Apply(a), false
}
