package mat

import (
	"math/rand"
	"testing"
)

func TestNewDense(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatal("new matrix not zero")
			}
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero dims")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("wrong values")
	}
}

func TestNewDenseFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestSetAtRow(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[1] = 9 // views alias storage
	if m.At(1, 1) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestBoundsPanics(t *testing.T) {
	m := NewDense(2, 2)
	for name, fn := range map[string]func(){
		"At":  func() { m.At(2, 0) },
		"Set": func() { m.Set(0, -1, 1) },
		"Row": func() { m.Row(5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewDenseFrom([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := Mul(a, b)
	want := NewDenseFrom([][]float64{{58, 64}, {139, 154}})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul = %+v", got.Data())
	}
}

func TestMulShapePanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(a, b)
}

func TestMulAliasPanics(t *testing.T) {
	a := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected alias panic")
		}
	}()
	MulInto(a, a, a)
}

func TestMulTransInto(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}}) // 3×2
	b := NewDenseFrom([][]float64{{7}, {8}, {9}})          // 3×1
	dst := NewDense(2, 1)
	MulTransInto(dst, a, b) // aᵀ·b = 2×1
	want := NewDenseFrom([][]float64{{1*7 + 3*8 + 5*9}, {2*7 + 4*8 + 6*9}})
	if !dst.Equal(want, 0) {
		t.Fatalf("MulTransInto = %+v", dst.Data())
	}
}

// TestDotRowsIntoSmall is a worked case of DotRowsInto: x·wᵀ + b for a
// 1×2 row and a 2×2 matrix.
func TestDotRowsIntoSmall(t *testing.T) {
	dst := make([]float64, 2)
	DotRowsInto(dst, []float64{1, 2}, []float64{3, 4, 5, 6}, []float64{0.5, -1})
	if want := []float64{1*3 + 2*4 + 0.5, 1*5 + 2*6 - 1}; dst[0] != want[0] || dst[1] != want[1] {
		t.Fatalf("DotRowsInto = %v, want %v", dst, want)
	}
}

// TestDotRowsPanicsOnShortWeights pins the shape check.
func TestDotRowsPanicsOnShortWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short weight slice did not panic")
		}
	}()
	DotRowsInto(make([]float64, 3), make([]float64, 4), make([]float64, 11), make([]float64, 3))
}

func TestTransMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(4, 3)
	b := NewDense(4, 5)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	// Reference: explicit transpose.
	at := NewDense(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := Mul(at, b)
	got := NewDense(3, 5)
	MulTransInto(got, a, b)
	if !got.Equal(want, 1e-12) {
		t.Fatal("MulTransInto disagrees with reference")
	}
}

func TestInPlaceOps(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}})
	n := NewDenseFrom([][]float64{{3, 4}})
	m.AddInPlace(n)
	if !m.Equal(NewDenseFrom([][]float64{{4, 6}}), 0) {
		t.Fatal("AddInPlace wrong")
	}
	m.SubInPlace(n)
	if !m.Equal(NewDenseFrom([][]float64{{1, 2}}), 0) {
		t.Fatal("SubInPlace wrong")
	}
	m.ScaleInPlace(3)
	if !m.Equal(NewDenseFrom([][]float64{{3, 6}}), 0) {
		t.Fatal("ScaleInPlace wrong")
	}
	m.AddScaledInPlace(-1, n)
	if !m.Equal(NewDenseFrom([][]float64{{0, 2}}), 0) {
		t.Fatal("AddScaledInPlace wrong")
	}
}

func TestApplyCloneZeroFill(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, -2}})
	c := m.Clone()
	m.Apply(func(x float64) float64 { return x * x })
	if !m.Equal(NewDenseFrom([][]float64{{1, 4}}), 0) {
		t.Fatal("Apply wrong")
	}
	if !c.Equal(NewDenseFrom([][]float64{{1, -2}}), 0) {
		t.Fatal("Clone aliases original")
	}
	m.Fill(7)
	if m.At(0, 0) != 7 || m.At(0, 1) != 7 {
		t.Fatal("Fill wrong")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero wrong")
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, -9}, {3, 2}})
	if got := m.MaxAbs(); got != 9 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestRandomizeDeterministic(t *testing.T) {
	a := NewDense(3, 3)
	b := NewDense(3, 3)
	a.Randomize(rand.New(rand.NewSource(42)), 0.5)
	b.Randomize(rand.New(rand.NewSource(42)), 0.5)
	if !a.Equal(b, 0) {
		t.Fatal("Randomize not deterministic for equal seeds")
	}
	if a.MaxAbs() > 0.5 {
		t.Fatal("Randomize exceeded scale")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewDense(1, 2).Equal(NewDense(2, 1), 1) {
		t.Fatal("different shapes reported equal")
	}
}
