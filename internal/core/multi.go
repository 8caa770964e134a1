package core

import (
	"math"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/planner"
	"safeplan/internal/telemetry"
)

// MultiAgent is the multi-vehicle counterpart of Agent: the paper's system
// model has the ego receive messages from vehicles C_1 … C_{n−1} (§II-A),
// and in the left-turn scenario several oncoming vehicles may cross the
// conflict zone in sequence.  Each control step the agent receives one
// Knowledge per tracked vehicle.
type MultiAgent interface {
	// Name identifies the agent in results tables.
	Name() string
	// Accel returns the acceleration command and an emergency flag.
	Accel(t float64, ego dynamics.State, ks []Knowledge) (a float64, emergency bool)
}

// MostConstrainingWindow reduces a set of per-vehicle passing windows to
// the single window handed to κ_n: the non-empty window with the earliest
// possible entry.  With a stream of oncoming vehicles this makes the
// planner handle them sequentially — yield to the nearest conflict, then
// re-evaluate against the next — which is exactly the behaviour the
// 5-feature planner input of the case study can express.
func MostConstrainingWindow(ws []interval.Interval) interval.Interval {
	best := interval.Empty()
	bestLo := math.Inf(1)
	for _, w := range ws {
		if w.IsEmpty() {
			continue
		}
		if w.Lo < bestLo {
			best = w
			bestLo = w.Lo
		}
	}
	return best
}

// MultiPure runs κ_n against the most constraining conservative window —
// the multi-vehicle baseline.
type MultiPure struct {
	Cfg     leftturn.Config
	Planner planner.Planner
}

// Name implements MultiAgent.
func (p *MultiPure) Name() string { return "pure-multi:" + p.Planner.Name() }

// Accel implements MultiAgent.
func (p *MultiPure) Accel(t float64, ego dynamics.State, ks []Knowledge) (float64, bool) {
	// Single-pass reduction (no window slice): agents are shared across
	// campaign workers, so they stay stateless AND allocation-free.
	best := interval.Empty()
	bestLo := math.Inf(1)
	for _, k := range ks {
		w := p.Cfg.ConservativeWindow(k.Fused)
		if !w.IsEmpty() && w.Lo < bestLo {
			best, bestLo = w, w.Lo
		}
	}
	return p.Planner.Accel(t, ego, best), false
}

// MultiCompound is the compound planner generalized to several oncoming
// vehicles: the runtime monitor assesses the ego state against *every*
// vehicle's sound window independently — any emergency verdict wins, and
// the commitment guards combine as the tightest floor and ceiling.  If the
// combined guards conflict (committed to pass before one vehicle but after
// another with incompatible accelerations), the emergency planner takes
// over.
type MultiCompound struct {
	Cfg     leftturn.Config
	Planner planner.Planner
	Monitor monitor.Monitor

	// AggressiveSet selects the aggressive unsafe-set estimation for κ_n's
	// input, as in the single-vehicle Compound.
	AggressiveSet bool

	// Collector, when non-nil, receives the combined monitor selection
	// (over all tracked vehicles) every control step.
	Collector telemetry.Collector

	label string
}

// decide reports the step's combined monitor selection to the collector.
func (c *MultiCompound) decide(reason string) {
	if c.Collector != nil {
		c.Collector.OnMonitorDecision(reason)
	}
}

// NewMultiBasic builds the multi-vehicle basic compound design.
func NewMultiBasic(cfg leftturn.Config, p planner.Planner) *MultiCompound {
	return &MultiCompound{
		Cfg:     cfg,
		Planner: p,
		Monitor: monitor.New(cfg),
		label:   "basic-multi:" + p.Name(),
	}
}

// NewMultiUltimate builds the multi-vehicle ultimate compound design.
func NewMultiUltimate(cfg leftturn.Config, p planner.Planner) *MultiCompound {
	return &MultiCompound{
		Cfg:           cfg,
		Planner:       p,
		Monitor:       monitor.New(cfg),
		AggressiveSet: true,
		label:         "ultimate-multi:" + p.Name(),
	}
}

// Name implements MultiAgent.
func (c *MultiCompound) Name() string {
	if c.label != "" {
		return c.label
	}
	return "compound-multi:" + c.Planner.Name()
}

// Accel implements MultiAgent.
func (c *MultiCompound) Accel(t float64, ego dynamics.State, ks []Knowledge) (float64, bool) {
	floor := math.Inf(-1)
	ceil := math.Inf(1)
	hasFloor, hasCeil := false, false
	for i := range ks {
		w := c.Cfg.ConservativeWindow(ks[i].Sound)
		verdict := c.Monitor.Assess(ego, w)
		if verdict.Emergency {
			c.decide(verdict.Reason)
			return c.Cfg.EmergencyAccel(ego), true
		}
		if verdict.HasFloor && verdict.Floor > floor {
			floor, hasFloor = verdict.Floor, true
		}
		if verdict.HasCeil && verdict.Ceil < ceil {
			ceil, hasCeil = verdict.Ceil, true
		}
	}
	if hasFloor && hasCeil && floor > ceil {
		// Incompatible commitments (must out-run one vehicle but wait for
		// another): fall back to κ_e, which resolves by feasibility.
		c.decide(telemetry.ReasonInfeasible)
		return c.Cfg.EmergencyAccel(ego), true
	}
	c.decide(telemetry.ReasonPlanner)

	// Single-pass MostConstrainingWindow reduction: equivalent to building
	// the per-vehicle window slice and reducing it, without the per-step
	// allocation (the agent is shared across workers, so it cannot carry
	// mutable scratch).
	best := interval.Empty()
	bestLo := math.Inf(1)
	for i := range ks {
		var w interval.Interval
		if c.AggressiveSet {
			w = c.Cfg.AggressiveWindow(ks[i].Fused)
		} else {
			w = c.Cfg.ConservativeWindow(ks[i].Fused)
		}
		if !w.IsEmpty() && w.Lo < bestLo {
			best, bestLo = w, w.Lo
		}
	}
	a := c.Planner.Accel(t, ego, best)
	if hasFloor && a < floor {
		a = floor
	}
	if hasCeil && a > ceil {
		a = ceil
	}
	return a, false
}
