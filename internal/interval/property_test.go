package interval

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests for the interval-arithmetic laws the safety argument
// leans on.  Each law is checked against ~200 randomly drawn cases; the
// fundamental one is *inclusion soundness* — for every point x ∈ a, y ∈ b,
// the point result of an operation lies inside the interval result — since
// that is exactly what makes the conservative windows sound overapproxima-
// tions of the reachable sets.

const propCases = 200

// drawInterval returns a random non-empty interval, occasionally degenerate
// (a point) and occasionally spanning zero (the interesting case for Mul).
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

func TestPropAddSoundAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		s := a.Add(b)
		if s != b.Add(a) {
			t.Fatalf("Add not commutative: %v + %v", a, b)
		}
		x, y := drawIn(rng, a), drawIn(rng, b)
		if !s.Contains(x + y) {
			t.Fatalf("%v + %v = %v does not contain %v + %v = %v", a, b, s, x, y, x+y)
		}
	}
}

func TestPropSubNegConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		if a.Sub(b) != a.Add(b.Scale(-1)) {
			t.Fatalf("a−b ≠ a+(−b) for %v, %v", a, b)
		}
		x, y := drawIn(rng, a), drawIn(rng, b)
		if !a.Sub(b).Contains(x - y) {
			t.Fatalf("%v − %v does not contain %v − %v", a, b, x, y)
		}
	}
}

func TestPropMulSoundAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		p := a.Mul(b)
		if p != b.Mul(a) {
			t.Fatalf("Mul not commutative: %v × %v = %v vs %v", a, b, p, b.Mul(a))
		}
		x, y := drawIn(rng, a), drawIn(rng, b)
		// One float rounding of x*y may escape the exact-endpoint product
		// interval; allow an ulp-scale tolerance.
		tol := 1e-9 * (1 + math.Abs(x*y))
		if !p.Expand(tol).Contains(x * y) {
			t.Fatalf("%v × %v = %v does not contain %v × %v = %v", a, b, p, x, y, x*y)
		}
	}
}

func TestPropInclusionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for i := 0; i < propCases; i++ {
		a, b := drawInterval(rng), drawInterval(rng)
		// a' ⊆ a, b' ⊆ b drawn by shrinking.
		aa := New(drawIn(rng, a), a.Hi)
		bb := New(b.Lo, drawIn(rng, b))
		if !subset(aa.Add(bb), a.Add(b)) {
			t.Fatalf("Add not inclusion-monotone: %v⊆%v, %v⊆%v", aa, a, bb, b)
		}
		if !subset(aa.Mul(bb), a.Mul(b)) {
			t.Fatalf("Mul not inclusion-monotone: %v⊆%v, %v⊆%v", aa, a, bb, b)
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

func TestPropScaleExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for i := 0; i < propCases; i++ {
		a := drawInterval(rng)
		k := (rng.Float64() - 0.5) * 8
		x := drawIn(rng, a)
		s := a.Scale(k)
		tol := 1e-9 * (1 + math.Abs(k*x))
		if !s.Expand(tol).Contains(k * x) {
			t.Fatalf("%v scaled by %v = %v does not contain %v", a, k, s, k*x)
		}
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
