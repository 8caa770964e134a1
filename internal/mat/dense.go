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

// NewDenseFrom builds a matrix from a slice of rows.  All rows must have
// equal length.
func NewDenseFrom(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
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

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
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

// Mul returns a·b as a new matrix.
func Mul(a, b *Dense) *Dense {
	dst := NewDense(a.rows, b.cols)
	MulInto(dst, a, b)
	return dst
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

// MulBTransInto computes dst = a·bᵀ without materializing the transpose.
func MulBTransInto(dst, a, b *Dense) {
	if a.cols != b.cols {
		panic("mat: MulBTrans shape mismatch")
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic("mat: MulBTrans dst shape mismatch")
	}
	for i := 0; i < a.rows; i++ {
		DotRowsInto(dst.data[i*dst.cols:(i+1)*dst.cols], a.data[i*a.cols:(i+1)*a.cols], b.data)
	}
}

// DotRowsInto sets dst[j] = Σ_k x[k]·w[j·n+k] for every j < len(dst),
// with n = len(x): the row vector x times the transpose of the
// len(dst)×n row-major matrix w.  It is the dot kernel behind
// MulBTransInto (so Network.Predict1 and training), and the reference that
// MidRadInto, the IBP passes over transposed weights, equals bit for bit.
//
// Every output accumulates s += x[k]·w[j·n+k] from +0 in k-ascending
// order, so the result is bitwise the naive loop.  Four outputs share one
// pass over x, each with its own accumulator, which hides the latency of
// the dependent adds; a scalar loop finishes the last len(dst) mod 4.
func DotRowsInto(dst, x, w []float64) {
	n := len(x)
	if len(w) < len(dst)*n {
		panic(fmt.Sprintf("mat: DotRowsInto weights hold %d values, want %d×%d", len(w), len(dst), n))
	}
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		w0 := w[j*n:][:n]
		w1 := w[(j+1)*n:][:n]
		w2 := w[(j+2)*n:][:n]
		w3 := w[(j+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for k, xk := range x {
			s0 += xk * w0[k]
			s1 += xk * w1[k]
			s2 += xk * w2[k]
			s3 += xk * w3[k]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		wj := w[j*n:][:n]
		var s float64
		for k, xk := range x {
			s += xk * wj[k]
		}
		dst[j] = s
	}
}

// AddInPlace computes m += n element-wise.
func (m *Dense) AddInPlace(n *Dense) {
	m.sameShape(n)
	for i, v := range n.data {
		m.data[i] += v
	}
}

// SubInPlace computes m -= n element-wise.
func (m *Dense) SubInPlace(n *Dense) {
	m.sameShape(n)
	for i, v := range n.data {
		m.data[i] -= v
	}
}

// ScaleInPlace computes m *= k element-wise.
func (m *Dense) ScaleInPlace(k float64) {
	for i := range m.data {
		m.data[i] *= k
	}
}

// AddScaledInPlace computes m += k·n, the axpy used by plain SGD.
func (m *Dense) AddScaledInPlace(k float64, n *Dense) {
	m.sameShape(n)
	for i, v := range n.data {
		m.data[i] += k * v
	}
}

// Apply sets every element x to f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

func (m *Dense) sameShape(n *Dense) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.rows, m.cols, n.rows, n.cols))
	}
}

// MaxAbs returns the largest absolute entry, 0 for the empty matrix.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
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
