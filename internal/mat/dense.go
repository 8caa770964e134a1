package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix.  It is the storage type of the
// neural-network substrate (weights, activations, gradients).
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Row returns a view (not a copy) of row i as a slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major).  Mutations are visible.
func (m *Dense) Data() []float64 { return m.data }

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero sets every element to 0, keeping the allocation.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Randomize fills the matrix with uniform values in [-scale, scale] using
// rng; it is used for weight initialization (deterministic given the seed).
func (m *Dense) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// MulInto computes dst = a·b.  dst must be preallocated with matching shape
// and must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: Mul dst shape mismatch")
	}
	if dst == a || dst == b {
		panic("mat: Mul dst aliases operand")
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulTransInto computes dst = aᵀ·b without materializing the transpose.
func MulTransInto(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic("mat: MulTrans shape mismatch")
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic("mat: MulTrans dst shape mismatch")
	}
	dst.Zero()
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// ScaleInPlace computes m *= k element-wise.
func (m *Dense) ScaleInPlace(k float64) {
	for i := range m.data {
		m.data[i] *= k
	}
}

// Apply sets every element x to f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// Equal reports element-wise equality within tol.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-n.data[i]) > tol {
			return false
		}
	}
	return true
}
