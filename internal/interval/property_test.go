package interval

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests for the interval laws the safety argument leans
// on.  Each law is checked against ~200 randomly drawn cases; the
// fundamental one is *inclusion monotonicity* — shrinking the operands
// never grows the result — since that is what keeps the information
// filter's intersections sound overapproximations of the reachable sets.

const propCases = 200

// drawInterval returns a random non-empty interval, occasionally degenerate
// (a point).
func drawInterval(rng *rand.Rand) Interval {
	lo := (rng.Float64() - 0.5) * 40
	switch rng.Intn(4) {
	case 0:
		return Point(lo)
	default:
		return New(lo, lo+rng.Float64()*20)
	}
}

// drawIn returns a uniformly drawn point of iv.
func drawIn(rng *rand.Rand, iv Interval) float64 {
	if iv.Lo == iv.Hi {
		return iv.Lo
	}
	return iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
}

func TestPropInclusionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		// a' ⊆ a, b' ⊆ b drawn by shrinking.
		aa := New(drawIn(rng, a), a.Hi)
		bb := New(b.Lo, drawIn(rng, b))
		if !subset(aa.Intersect(bb), a.Intersect(b)) {
			t.Fatalf("Intersect not inclusion-monotone: %v⊆%v, %v⊆%v", aa, a, bb, b)
		}
		if got := aa.Intersect(a); !subset(got, a) {
			t.Fatalf("Intersect escapes its operand: %v ∩ %v = %v", aa, a, got)
		}
	}
}

func TestPropIntersectHull(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		x := drawIn(rng, a)
		in := a.Intersect(b)
		if b.Contains(x) != in.Contains(x) {
			t.Fatalf("x=%v: membership in %v ∩ %v = %v disagrees with pointwise test", x, a, b, in)
		}
		if in.IsEmpty() && a.Intersects(b) {
			t.Fatalf("Intersects(%v, %v) true but intersection empty", a, b)
		}
	}
}

func TestPropExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for i := 0; i < propCases; i++ {
		a := drawInterval(rng)
		r := rng.Float64() * 3
		e := a.Expand(r)
		if !subset(a, e) || math.Abs(e.Width()-(a.Width()+2*r)) > 1e-9 {
			t.Fatalf("Expand(%v, %v) = %v", a, r, e)
		}
	}
}

func TestPropEmptyAbsorbs(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for i := 0; i < propCases; i++ {
		a := drawInterval(rng)
		if !Empty().Intersect(a).IsEmpty() || !a.Intersect(Empty()).IsEmpty() {
			t.Fatalf("intersection with ∅ not empty for %v", a)
		}
		if Empty().Contains(drawIn(rng, a)) {
			t.Fatal("∅ contains a point")
		}
	}
}
