// Package interval implements closed real intervals [Lo, Hi] and the
// arithmetic the safety framework needs to propagate set-valued state
// estimates.
//
// Every quantity the ego vehicle knows about another traffic participant —
// position, velocity, passing-time window — is an interval: the reachability
// analysis of delayed messages yields one interval, the Kalman filter yields
// another, and the information filter joins them by intersection.  The
// operations here are the usual inclusion-monotone interval extensions, so
// soundness (the true value stays inside) is preserved through every
// computation as long as the inputs are sound.
package interval

import (
	"fmt"
	"math"
)

// Interval is a closed interval [Lo, Hi] over the extended reals.
// The zero value is the degenerate interval [0, 0].
//
// An interval with Lo > Hi is empty; use Empty to construct one and
// IsEmpty to test.  Operations on empty intervals yield empty intervals.
type Interval struct {
	Lo, Hi float64
}

// New returns the interval [lo, hi].  If lo > hi the result is empty, which
// mirrors intersection semantics.
func New(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Interval{Lo: x, Hi: x} }

// Empty returns a canonical empty interval.
func Empty() Interval { return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)} }

// Entire returns (-inf, +inf).
func Entire() Interval { return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Width returns Hi-Lo, or 0 for an empty interval.
func (iv Interval) Width() float64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Mid returns the midpoint.  For an empty interval it returns NaN.
func (iv Interval) Mid() float64 {
	if iv.IsEmpty() {
		return math.NaN()
	}
	return iv.Lo + (iv.Hi-iv.Lo)/2
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Intersect returns iv ∩ other (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	if iv.IsEmpty() || other.IsEmpty() {
		return Empty()
	}
	lo := maxf(iv.Lo, other.Lo)
	hi := minf(iv.Hi, other.Hi)
	if lo > hi {
		return Empty()
	}
	return Interval{Lo: lo, Hi: hi}
}

// Intersects reports whether iv ∩ other is nonempty.  This is the test the
// unsafe-set definition (paper Eq. 6) applies to passing-time windows.
func (iv Interval) Intersects(other Interval) bool {
	return !iv.Intersect(other).IsEmpty()
}

// Expand grows the interval by r on each side (shrinks if r < 0; the result
// becomes empty if it shrinks past its midpoint).
func (iv Interval) Expand(r float64) Interval {
	if iv.IsEmpty() {
		return iv
	}
	out := Interval{Lo: iv.Lo - r, Hi: iv.Hi + r}
	if out.Lo > out.Hi {
		return Empty()
	}
	return out
}

// ClampTo intersects the interval with the admissible range [lo, hi]; it is
// used to apply physical limits (e.g. velocity in [vmin, vmax]) to an
// estimate.
func (iv Interval) ClampTo(lo, hi float64) Interval {
	return iv.Intersect(Interval{Lo: lo, Hi: hi})
}

// Clamp returns x clamped into the interval.  Clamp on an empty interval
// panics, as there is no valid value to return.
func (iv Interval) Clamp(x float64) float64 {
	if iv.IsEmpty() {
		panic("interval: Clamp on empty interval")
	}
	if x < iv.Lo {
		return iv.Lo
	}
	if x > iv.Hi {
		return iv.Hi
	}
	return x
}

// maxf is math.Max in a form the compiler inlines (math.Max is an
// assembly routine on amd64).  It keeps math.Max's special cases: +Inf
// wins over NaN, then NaN wins, and max(−0, +0) = +0.  The builtin max
// alone would return NaN for (+Inf, NaN).
func maxf(x, y float64) float64 {
	if x > math.MaxFloat64 || y > math.MaxFloat64 {
		return math.Inf(1)
	}
	return max(x, y)
}

// minf is math.Min in a form the compiler inlines; −Inf wins over NaN,
// then NaN wins, and min(−0, +0) = −0.
func minf(x, y float64) float64 {
	if x < -math.MaxFloat64 || y < -math.MaxFloat64 {
		return math.Inf(-1)
	}
	return min(x, y)
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	return fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi)
}
