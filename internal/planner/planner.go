// Package planner defines the planner abstraction of the paper (§II-A):
// a function from the current system state to the ego acceleration — and
// provides the concrete planners of the evaluation: two analytic expert
// policies (a conservative yielder and an aggressive gap-taker) and the
// NN-based planners trained to imitate them (see train.go).
//
// Every planner consumes the same 5 quantities the paper feeds κ_n in the
// case study: the time t, the ego position and velocity, and the estimated
// passing-time window [τ1,min, τ1,max] of the oncoming vehicle.  Which
// window a planner receives — conservative (Eq. 7) or aggressive (Eq. 8) —
// is decided by the surrounding compound planner, which is exactly how the
// aggressive unsafe-set technique influences behaviour without retraining.
package planner

import (
	"math"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
)

// Planner decides the ego acceleration from the planner-visible state.
type Planner interface {
	// Name identifies the planner in results tables.
	Name() string
	// Accel returns the commanded acceleration given the time, the ego
	// state, and the estimated oncoming passing-time window (relative,
	// possibly empty when no conflict is considered possible).
	Accel(t float64, ego dynamics.State, oncoming interval.Interval) float64
}

// Expert is an analytic rule policy over the planner-visible state.  It is
// both a usable planner and the teacher for imitation learning.
//
// Decision logic: commit ("go") when the ego can clear the back line —
// flat out — at least GoMargin seconds before the window opens; otherwise
// yield by tracking a speed profile that arrives at the front line as the
// window closes (crawling to a stop if the window never closes).
type Expert struct {
	Cfg leftturn.Config

	// GoMargin is the spare time demanded before committing.  Large
	// positive values yield the conservative planner; negative values the
	// aggressive one (it commits even when flat-out clearing happens after
	// the earliest possible oncoming arrival — betting the oncoming car
	// won't actually drive at its physical limits).
	GoMargin float64
	// YieldBuffer is how many metres before the front line the yield
	// profile aims to stop.
	YieldBuffer float64
	// Response is the speed-tracking time constant while yielding [s].
	Response float64
	// ComfortBrake is the deceleration magnitude beyond which the yield
	// profile switches to a hard stop-before-line braking law [m/s²].
	ComfortBrake float64
	// GlideBrake shapes the approach when the window never closes: the
	// yield profile holds the speed from which a GlideBrake-deceleration
	// stop at the buffer point is still possible, so the vehicle glides to
	// the line instead of stopping far away [m/s²].
	GlideBrake float64

	// Label names the expert in results tables.
	Label string
}

// ConservativeExpert returns the yield-first expert: it commits only with a
// full second of worst-case margin and brakes early, mirroring the paper's
// κ_n,cons behaviour (safe standalone, but slow).
func ConservativeExpert(cfg leftturn.Config) *Expert {
	return &Expert{
		Cfg:          cfg,
		GoMargin:     1.0,
		YieldBuffer:  1.0,
		Response:     0.6,
		ComfortBrake: 4.0,
		GlideBrake:   1.2,
		Label:        "expert-conservative",
	}
}

// AggressiveExpert returns the gap-taking expert: it commits even when the
// worst-case oncoming arrival precedes its own clearing time by up to
// |GoMargin| seconds, mirroring κ_n,aggr (fast, but unsafe standalone).
func AggressiveExpert(cfg leftturn.Config) *Expert {
	return &Expert{
		Cfg:          cfg,
		GoMargin:     -1.6,
		YieldBuffer:  0.5,
		Response:     0.4,
		ComfortBrake: 5.0,
		GlideBrake:   2.0,
		Label:        "expert-aggressive",
	}
}

// Name implements Planner.
func (e *Expert) Name() string { return e.Label }

// Accel implements Planner.
func (e *Expert) Accel(_ float64, ego dynamics.State, oncoming interval.Interval) float64 {
	c := &e.Cfg
	lim := c.Ego
	// Past the zone, or inside it: keep moving out at full throttle.
	if ego.P > c.Geometry.PF {
		return lim.AMax
	}
	// No conflict possible: go.
	if oncoming.IsEmpty() {
		return lim.AMax
	}
	// Commit when flat-out clearing beats the window opening with margin.
	clear := dynamics.TimeToReach(c.Geometry.PB-ego.P, ego.V, lim.AMax, lim.VMax)
	if clear+e.GoMargin <= oncoming.Lo {
		return lim.AMax
	}
	return e.yieldAccel(ego, oncoming)
}

// yieldAccel tracks a profile that arrives at the front line as the window
// closes, degrading to a stop at YieldBuffer before the line when the
// window never closes (or closes too far away).
func (e *Expert) yieldAccel(ego dynamics.State, oncoming interval.Interval) float64 {
	c := &e.Cfg
	lim := c.Ego
	dist := c.Geometry.PF - e.YieldBuffer - ego.P
	if dist <= 0 {
		// Within the buffer: stop now.
		return lim.AMin
	}
	// Hard-stop guard: if the braking needed to stop before the buffer
	// point approaches the comfort limit, brake for the stop regardless of
	// the tracking law.
	required := ego.V * ego.V / (2 * dist)
	if required >= e.ComfortBrake {
		return max(lim.AMin, -required*1.1)
	}
	// Glide: approach as fast as a comfortable stop at the buffer point
	// allows, so the vehicle is poised at the line when the window closes.
	vTarget := math.Sqrt(2 * e.GlideBrake * dist)
	if !math.IsInf(oncoming.Hi, 1) && oncoming.Hi > 0 {
		// The window closes at a known time: aim to arrive right then.
		if vArrive := dist / oncoming.Hi; vArrive > vTarget {
			vTarget = vArrive
		}
	}
	if vTarget > lim.VMax {
		vTarget = lim.VMax
	}
	a := (vTarget - ego.V) / e.Response
	return max(lim.AMin, min(lim.AMax, a))
}

// Emergency wraps the scenario's emergency planner κ_e as a Planner so it
// can be benchmarked standalone; it ignores the window by design.
type Emergency struct {
	Cfg leftturn.Config
}

// Name implements Planner.
func (Emergency) Name() string { return "emergency" }

// Accel implements Planner.
func (e Emergency) Accel(_ float64, ego dynamics.State, _ interval.Interval) float64 {
	return e.Cfg.EmergencyAccel(ego)
}

// Func adapts a plain function to the Planner interface, easing tests and
// user-supplied planners.
type Func struct {
	PlannerName string
	F           func(t float64, ego dynamics.State, oncoming interval.Interval) float64
}

// Name implements Planner.
func (f Func) Name() string { return f.PlannerName }

// Accel implements Planner.
func (f Func) Accel(t float64, ego dynamics.State, oncoming interval.Interval) float64 {
	return f.F(t, ego, oncoming)
}
