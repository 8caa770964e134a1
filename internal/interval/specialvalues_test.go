package interval

import (
	"math"
	"testing"
)

// The reference operation below is the math.Max/math.Min formulation
// Intersect is defined by; the inlined helpers must agree with it on
// every special value.

func refIntersect(a, b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return Empty()
	}
	lo := math.Max(a.Lo, b.Lo)
	hi := math.Min(a.Hi, b.Hi)
	if lo > hi {
		return Empty()
	}
	return Interval{Lo: lo, Hi: hi}
}

// sameFloat is bitwise equality, except that any two NaNs match.
func sameFloat(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func sameInterval(a, b Interval) bool { return sameFloat(a.Lo, b.Lo) && sameFloat(a.Hi, b.Hi) }

// TestMinMaxSpecialValues runs Intersect and ClampTo over every
// pair of intervals whose bounds come from the special values — signed
// zeros, infinities, NaN, the largest finite magnitudes and a subnormal —
// in either order, reversed (empty) bounds included, and checks each
// result bitwise against the math.Max/math.Min reference.
func TestMinMaxSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	vals := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, sub, -sub, 1.5,
	}
	var ivs []Interval
	for _, lo := range vals {
		for _, hi := range vals {
			ivs = append(ivs, Interval{Lo: lo, Hi: hi})
		}
	}
	for _, a := range ivs {
		for _, b := range ivs {
			if g, w := a.Intersect(b), refIntersect(a, b); !sameInterval(g, w) {
				t.Fatalf("%v.Intersect(%v) = %v, want %v", a, b, g, w)
			}
			if g, w := a.ClampTo(b.Lo, b.Hi), refIntersect(a, b); !sameInterval(g, w) {
				t.Fatalf("%v.ClampTo(%v, %v) = %v, want %v", a, b.Lo, b.Hi, g, w)
			}
		}
	}
	// The helpers themselves, on the pairs where the builtins differ from
	// math.Max/math.Min.
	for _, x := range vals {
		for _, y := range vals {
			if g, w := maxf(x, y), math.Max(x, y); !sameFloat(g, w) {
				t.Fatalf("maxf(%v, %v) = %v, want %v", x, y, g, w)
			}
			if g, w := minf(x, y), math.Min(x, y); !sameFloat(g, w) {
				t.Fatalf("minf(%v, %v) = %v, want %v", x, y, g, w)
			}
		}
	}
}
