// Package dynamics implements the discrete-time vehicle model of the paper
// (§II-A): a one-dimensional double integrator
//
//	p(t+Δt) = p(t) + v(t)·Δt + ½·a(t)·Δt²
//	v(t+Δt) = v(t) + a(t)·Δt
//
// subject to per-vehicle physical limits on velocity and acceleration.  The
// same model is shared by the simulator (ground truth), the reachability
// analysis, and the Kalman filter's process model, so they agree exactly.
package dynamics

import (
	"fmt"
	"math"
)

// State is the kinematic state of one vehicle on its (one-dimensional) path.
type State struct {
	P float64 // position along the path [m]
	V float64 // velocity [m/s]
}

// Limits captures a vehicle's physical envelope.  AMin is the strongest
// braking (negative), AMax the strongest acceleration (positive).
type Limits struct {
	VMin, VMax float64 // velocity range [m/s], VMin ≤ VMax
	AMin, AMax float64 // acceleration range [m/s²], AMin < 0 < AMax
}

// Validate reports whether the limits are internally consistent.  A NaN
// acceleration bound fails too: the planners clamp commands with the
// builtin min/max, which agree with math.Min/math.Max once AMin and AMax
// are known to be numbers of the right sign.
func (l Limits) Validate() error {
	switch {
	case l.VMin > l.VMax:
		return fmt.Errorf("dynamics: VMin %v > VMax %v", l.VMin, l.VMax)
	case !(l.AMin < 0):
		return fmt.Errorf("dynamics: AMin %v must be negative", l.AMin)
	case !(l.AMax > 0):
		return fmt.Errorf("dynamics: AMax %v must be positive", l.AMax)
	}
	return nil
}

// ClampAccel restricts a requested acceleration to the envelope, including
// the velocity bounds: the returned value, applied for dt seconds from
// velocity v, keeps the velocity inside [VMin, VMax].  This models
// saturation (an engine cannot push past top speed; brakes cannot drive the
// car backwards below VMin).
func (l Limits) ClampAccel(v, a, dt float64) float64 {
	if a > l.AMax {
		a = l.AMax
	}
	if a < l.AMin {
		a = l.AMin
	}
	if dt <= 0 {
		return a
	}
	if hi := (l.VMax - v) / dt; a > hi {
		a = hi
	}
	if lo := (l.VMin - v) / dt; a < lo {
		a = lo
	}
	return a
}

// Step advances the state by dt under acceleration a, clamped to the limits
// (see ClampAccel).  It returns the new state and the acceleration actually
// applied.
func Step(s State, a, dt float64, l Limits) (State, float64) {
	a = l.ClampAccel(s.V, a, dt)
	next := State{
		P: s.P + s.V*dt + 0.5*a*dt*dt,
		V: s.V + a*dt,
	}
	// Guard against float drift at the saturation boundary.
	if next.V > l.VMax {
		next.V = l.VMax
	}
	if next.V < l.VMin {
		next.V = l.VMin
	}
	return next, a
}

// StopDistance returns the distance covered when braking from velocity v at
// the constant (negative) acceleration aBrake down to zero velocity:
// d = -v²/(2·aBrake).  This is the braking distance d_b of the paper's
// slack definition (Eq. 5).
func StopDistance(v, aBrake float64) float64 {
	if v <= 0 {
		return 0
	}
	if aBrake >= 0 {
		return math.Inf(1)
	}
	return -v * v / (2 * aBrake)
}

// TimeToReach returns the earliest time to travel a nonnegative distance d
// starting at velocity v, accelerating at constant rate a but never
// exceeding vMax.  It returns +Inf when the distance is unreachable (e.g.
// v = 0 and a ≤ 0).  This closed form is the building block of the
// passing-time window estimates (paper Eq. 7 and Eq. 8).
func TimeToReach(d, v, a, vMax float64) float64 {
	if d <= 0 {
		return 0
	}
	if v > vMax {
		v = vMax
	}
	if a <= 0 {
		// Constant or decreasing speed: with a < 0 the vehicle may stop
		// before covering d.
		if a == 0 {
			if v <= 0 {
				return math.Inf(1)
			}
			return d / v
		}
		if v <= 0 {
			return math.Inf(1)
		}
		// Distance available before stopping: v²/(-2a).
		if avail := v * v / (-2 * a); avail < d {
			return math.Inf(1)
		}
		// Solve d = v·t + ½·a·t², take the smaller positive root.
		disc := v*v + 2*a*d
		if disc < 0 {
			disc = 0
		}
		return (v - math.Sqrt(disc)) / (-a)
	}
	// Accelerating phase up to vMax.
	if v >= vMax {
		return d / vMax
	}
	// Distance to reach vMax: (vMax² - v²) / (2a).
	dAccel := (vMax*vMax - v*v) / (2 * a)
	if dAccel >= d {
		// Reaches d while still accelerating: d = v·t + ½·a·t².
		disc := v*v + 2*a*d
		return (-v + math.Sqrt(disc)) / a
	}
	tAccel := (vMax - v) / a
	return tAccel + (d-dAccel)/vMax
}

// TimeToCover generalizes TimeToReach with a velocity floor: the vehicle
// accelerates (or decelerates) at constant rate a, with the velocity
// saturating inside [vMin, vMax], and the function returns the earliest time
// at which the nonnegative distance d has been covered (+Inf if never).
// The conservative passing-time upper bound τ_{1,max} (paper §IV) uses this
// with a = a_{1,min} and floor v_{1,min}.
func TimeToCover(d, v, a, vMin, vMax float64) float64 {
	if d <= 0 {
		return 0
	}
	if vMin < 0 {
		vMin = 0
	}
	if v < vMin {
		v = vMin
	}
	if v > vMax {
		v = vMax
	}
	if a > 0 {
		return TimeToReach(d, v, a, vMax)
	}
	if a == 0 {
		if v <= 0 {
			return math.Inf(1)
		}
		return d / v
	}
	// Decelerating toward vMin.
	tSat := (vMin - v) / a // ≥ 0
	dSat := v*tSat + 0.5*a*tSat*tSat
	if dSat >= d {
		disc := v*v + 2*a*d
		if disc < 0 {
			disc = 0
		}
		return (v - math.Sqrt(disc)) / (-a)
	}
	if vMin <= 0 {
		return math.Inf(1) // stops before covering d
	}
	return tSat + (d-dSat)/vMin
}

// DistanceAfter returns the distance covered after time t when starting at
// velocity v and applying constant acceleration a, with the velocity
// saturating inside [vMin, vMax].  It is the closed form behind the
// reachability bound of paper Eq. 2, generalized to both directions.
func DistanceAfter(t, v, a, vMin, vMax float64) float64 {
	if t <= 0 {
		return 0
	}
	if v < vMin {
		v = vMin
	}
	if v > vMax {
		v = vMax
	}
	if a == 0 {
		return v * t
	}
	var vSat float64
	if a > 0 {
		vSat = vMax
	} else {
		vSat = vMin
	}
	tSat := (vSat - v) / a // time until the velocity saturates (≥ 0)
	if tSat >= t {
		return v*t + 0.5*a*t*t
	}
	return v*tSat + 0.5*a*tSat*tSat + vSat*(t-tSat)
}
