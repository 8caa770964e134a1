package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec2Ops(t *testing.T) {
	v := Vec2{1, 2}
	w := Vec2{3, -4}
	if got := v.Add(w); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := w.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestMat2Identity(t *testing.T) {
	id := Identity2()
	m := Mat2{1, 2, 3, 4}
	if got := id.Mul(m); got != m {
		t.Errorf("I·m = %v", got)
	}
	if got := m.Mul(id); got != m {
		t.Errorf("m·I = %v", got)
	}
	v := Vec2{5, 7}
	if got := id.MulVec(v); got != v {
		t.Errorf("I·v = %v", got)
	}
}

func TestMat2Mul(t *testing.T) {
	m := Mat2{1, 2, 3, 4}
	n := Mat2{5, 6, 7, 8}
	want := Mat2{19, 22, 43, 50}
	if got := m.Mul(n); got != want {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMat2Inverse(t *testing.T) {
	m := Mat2{4, 7, 2, 6}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	got := m.Mul(inv)
	id := Identity2()
	const tol = 1e-12
	if math.Abs(got.A-id.A) > tol || math.Abs(got.B-id.B) > tol ||
		math.Abs(got.C-id.C) > tol || math.Abs(got.D-id.D) > tol {
		t.Fatalf("m·m⁻¹ = %v", got)
	}
	if _, ok := (Mat2{1, 2, 2, 4}).Inverse(); ok {
		t.Fatal("singular matrix reported invertible")
	}
}

func TestMat2TransposeDetTrace(t *testing.T) {
	m := Mat2{1, 2, 3, 4}
	if got := m.Transpose(); got != (Mat2{1, 3, 2, 4}) {
		t.Errorf("Transpose = %v", got)
	}
	if got := m.Det(); got != -2 {
		t.Errorf("Det = %v", got)
	}
	if got := m.Trace(); got != 5 {
		t.Errorf("Trace = %v", got)
	}
}

func TestMat2AddSubScale(t *testing.T) {
	m := Mat2{1, 2, 3, 4}
	n := Mat2{4, 3, 2, 1}
	if got := m.Add(n); got != (Mat2{5, 5, 5, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := m.Sub(n); got != (Mat2{-3, -1, 1, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := m.Scale(2); got != (Mat2{2, 4, 6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestQuickMat2MulAssociative(t *testing.T) {
	clean := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		// Keep magnitudes modest so products stay in float range.
		return math.Mod(x, 100)
	}
	f := func(a, b, c, d, e, g, h, i, j, k, l, m float64) bool {
		x := Mat2{clean(a), clean(b), clean(c), clean(d)}
		y := Mat2{clean(e), clean(g), clean(h), clean(i)}
		z := Mat2{clean(j), clean(k), clean(l), clean(m)}
		p := x.Mul(y).Mul(z)
		q := x.Mul(y.Mul(z))
		tol := 1e-6 * (1 + math.Abs(p.A) + math.Abs(p.B) + math.Abs(p.C) + math.Abs(p.D))
		return math.Abs(p.A-q.A) < tol && math.Abs(p.B-q.B) < tol &&
			math.Abs(p.C-q.C) < tol && math.Abs(p.D-q.D) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeProduct(t *testing.T) {
	clean := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return math.Mod(x, 1000)
	}
	f := func(a, b, c, d, e, g, h, i float64) bool {
		x := Mat2{clean(a), clean(b), clean(c), clean(d)}
		y := Mat2{clean(e), clean(g), clean(h), clean(i)}
		return x.Mul(y).Transpose() == y.Transpose().Mul(x.Transpose())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The helpers below have no caller outside the tests.

// Norm returns the Euclidean norm.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns k·m.
func (m Mat2) Scale(k float64) Mat2 {
	return Mat2{k * m.A, k * m.B, k * m.C, k * m.D}
}

// Trace returns A + D.
func (m Mat2) Trace() float64 { return m.A + m.D }
