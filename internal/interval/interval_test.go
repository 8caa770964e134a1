package interval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	iv := New(-1, 2)
	if iv.Lo != -1 || iv.Hi != 2 {
		t.Fatalf("New(-1,2) = %v", iv)
	}
	if iv.IsEmpty() {
		t.Fatal("non-empty interval reported empty")
	}
	if got := iv.Width(); got != 3 {
		t.Fatalf("Width = %v, want 3", got)
	}
	if got := iv.Mid(); got != 0.5 {
		t.Fatalf("Mid = %v, want 0.5", got)
	}
}

func TestPoint(t *testing.T) {
	p := Point(3.5)
	if p.Lo != 3.5 || p.Hi != 3.5 || p.Width() != 0 || !p.Contains(3.5) {
		t.Fatalf("Point(3.5) = %v", p)
	}
}

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() not empty")
	}
	if e.Width() != 0 {
		t.Fatalf("empty Width = %v", e.Width())
	}
	if !math.IsNaN(e.Mid()) {
		t.Fatalf("empty Mid = %v, want NaN", e.Mid())
	}
	if e.Contains(0) {
		t.Fatal("empty interval contains 0")
	}
}

func TestEntire(t *testing.T) {
	ent := Entire()
	if !ent.Contains(0) || !ent.Contains(math.MaxFloat64) || !ent.Contains(-math.MaxFloat64) {
		t.Fatal("Entire does not contain reals")
	}
}

func TestNewReversedIsEmpty(t *testing.T) {
	if !New(2, 1).IsEmpty() {
		t.Fatal("New(2,1) should be empty")
	}
}

func TestContains(t *testing.T) {
	iv := New(0, 10)
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true}, {10, true}, {5, true}, {-0.001, false}, {10.001, false},
	}
	for _, c := range cases {
		if got := iv.Contains(c.x); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := New(0, 5)
	b := New(3, 8)
	got := a.Intersect(b)
	if got.Lo != 3 || got.Hi != 5 {
		t.Fatalf("Intersect = %v, want [3,5]", got)
	}
	if !a.Intersects(b) {
		t.Fatal("a and b should intersect")
	}
	c := New(6, 7)
	if !a.Intersect(c).IsEmpty() || a.Intersects(c) {
		t.Fatal("disjoint intervals reported intersecting")
	}
	// Touching endpoints intersect in a point — matters for the unsafe-set
	// window test where a grazing pass is still a conflict.
	d := New(5, 9)
	if !a.Intersects(d) {
		t.Fatal("touching intervals should intersect")
	}
}

func TestArithmetic(t *testing.T) {
	a := New(1, 2)
	b := New(-3, 4)
	if got := a.Add(b); got.Lo != -2 || got.Hi != 6 {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got.Lo != -3 || got.Hi != 5 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(-2); got.Lo != -4 || got.Hi != -2 {
		t.Errorf("Scale(-2) = %v", got)
	}
	if got := a.Scale(3); got.Lo != 3 || got.Hi != 6 {
		t.Errorf("Scale(3) = %v", got)
	}
	if got := a.Mul(b); got.Lo != -6 || got.Hi != 8 {
		t.Errorf("Mul = %v", got)
	}
}

func TestEmptyPropagation(t *testing.T) {
	e := Empty()
	a := New(1, 2)
	ops := map[string]Interval{
		"Add":       a.Add(e),
		"Sub":       e.Sub(a),
		"Mul":       a.Mul(e),
		"Intersect": a.Intersect(e),
		"Scale":     e.Scale(2),
	}
	for name, got := range ops {
		if !got.IsEmpty() {
			t.Errorf("%s with empty operand = %v, want empty", name, got)
		}
	}
}

func TestExpand(t *testing.T) {
	iv := New(1, 3).Expand(0.5)
	if iv.Lo != 0.5 || iv.Hi != 3.5 {
		t.Fatalf("Expand = %v", iv)
	}
	if got := New(1, 2).Expand(-1); !got.IsEmpty() {
		t.Fatalf("over-shrunk interval should be empty, got %v", got)
	}
}

func TestClampTo(t *testing.T) {
	got := New(-5, 20).ClampTo(0, 12)
	if got.Lo != 0 || got.Hi != 12 {
		t.Fatalf("ClampTo = %v", got)
	}
}

func TestClamp(t *testing.T) {
	iv := New(0, 10)
	if iv.Clamp(-1) != 0 || iv.Clamp(11) != 10 || iv.Clamp(5) != 5 {
		t.Fatal("Clamp wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp on empty should panic")
		}
	}()
	Empty().Clamp(0)
}

func TestString(t *testing.T) {
	if got := New(1, 2).String(); got != "[1, 2]" {
		t.Fatalf("String = %q", got)
	}
	if got := Empty().String(); got != "∅" {
		t.Fatalf("empty String = %q", got)
	}
}

// genInterval builds a non-empty interval from two arbitrary floats, with
// magnitudes bounded so that sums and products stay finite.
func genInterval(a, b float64) Interval {
	clean := func(x, def float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return def
		}
		return math.Mod(x, 1e6)
	}
	a = clean(a, 0)
	b = clean(b, 1)
	return New(math.Min(a, b), math.Max(a, b))
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		x, y := genInterval(a, b), genInterval(c, d)
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulCommutative(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		x, y := genInterval(a, b), genInterval(c, d)
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectSubset(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		x, y := genInterval(a, b), genInterval(c, d)
		got := x.Intersect(y)
		return subset(got, x) && subset(got, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Inclusion monotonicity is the property that makes interval computations
// sound: evaluating on point inputs inside the operand intervals yields a
// value inside the result interval.
func TestQuickInclusionAdd(t *testing.T) {
	f := func(a, b, c, d, s, u float64) bool {
		x, y := genInterval(a, b), genInterval(c, d)
		if math.IsNaN(s) || math.IsNaN(u) {
			return true
		}
		px := x.Lo + math.Abs(math.Mod(s, 1))*(x.Hi-x.Lo)
		py := y.Lo + math.Abs(math.Mod(u, 1))*(y.Hi-y.Lo)
		if math.IsNaN(px) || math.IsNaN(py) || math.IsInf(px, 0) || math.IsInf(py, 0) {
			return true
		}
		sum := x.Add(y)
		// Allow a little float slack at the boundary.
		return sum.Expand(1e-9 * (1 + math.Abs(px+py))).Contains(px + py)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// subset reports whether inner ⊆ outer; the empty interval is a subset of
// every interval.
func subset(inner, outer Interval) bool {
	return inner.IsEmpty() || (!outer.IsEmpty() && outer.Lo <= inner.Lo && inner.Hi <= outer.Hi)
}
