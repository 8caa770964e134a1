package mat

import (
	"math"
	"math/rand"
	"testing"
)

// denseFrom builds a matrix from equal-length rows.
func denseFrom(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

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
	a := denseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := denseFrom([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := Mul(a, b)
	want := denseFrom([][]float64{{58, 64}, {139, 154}})
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
	a := denseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}}) // 3×2
	b := denseFrom([][]float64{{7}, {8}, {9}})          // 3×1
	dst := NewDense(2, 1)
	MulTransInto(dst, a, b) // aᵀ·b = 2×1
	want := denseFrom([][]float64{{1*7 + 3*8 + 5*9}, {2*7 + 4*8 + 6*9}})
	if !dst.Equal(want, 0) {
		t.Fatalf("MulTransInto = %+v", dst.Data())
	}
}

// TestVecMatIntoSmall is a worked case of VecMatInto: x·wt + b for a
// 1×2 row and the 2×2 transposed weights of [[3 4] [5 6]].
func TestVecMatIntoSmall(t *testing.T) {
	dst := make([]float64, 2)
	VecMatInto(dst, []float64{1, 2}, []float64{3, 5, 4, 6}, []float64{0.5, -1})
	if want := []float64{1*3 + 2*4 + 0.5, 1*5 + 2*6 - 1}; dst[0] != want[0] || dst[1] != want[1] {
		t.Fatalf("VecMatInto = %v, want %v", dst, want)
	}
}

// TestVecMatPanicsOnShortWeights pins the shape check.
func TestVecMatPanicsOnShortWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short weight slice did not panic")
		}
	}()
	VecMatInto(make([]float64, 3), make([]float64, 4), make([]float64, 11), make([]float64, 3))
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
	m := denseFrom([][]float64{{1, 2}})
	m.ScaleInPlace(3)
	if !m.Equal(denseFrom([][]float64{{3, 6}}), 0) {
		t.Fatal("ScaleInPlace wrong")
	}
}

func TestApplyCloneZeroFill(t *testing.T) {
	m := denseFrom([][]float64{{1, -2}})
	c := m.Clone()
	m.Apply(func(x float64) float64 { return x * x })
	if !m.Equal(denseFrom([][]float64{{1, 4}}), 0) {
		t.Fatal("Apply wrong")
	}
	if !c.Equal(denseFrom([][]float64{{1, -2}}), 0) {
		t.Fatal("Clone aliases original")
	}
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatal("Zero wrong")
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
	for _, v := range a.Data() {
		if math.Abs(v) > 0.5 {
			t.Fatal("Randomize exceeded scale")
		}
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewDense(1, 2).Equal(NewDense(2, 1), 1) {
		t.Fatal("different shapes reported equal")
	}
}

// Mul returns a·b as a new matrix: the tests' reference product.
func Mul(a, b *Dense) *Dense {
	dst := NewDense(a.rows, b.cols)
	MulInto(dst, a, b)
	return dst
}
