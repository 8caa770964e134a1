// Package mat provides the small dense linear algebra the framework needs:
// fixed-size 2-vectors and 2×2 matrices for the Kalman filter over
// (position, velocity) state, and a general row-major Dense matrix used by
// the neural-network substrate.
//
// Everything is allocation-conscious: the 2D types are plain value types,
// and Dense offers in-place variants for the inner loops of training.
package mat

import (
	"fmt"
	"math"
)

// Vec2 is a 2-vector, used for the (position, velocity) state of a vehicle.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns k·v.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{k * v.X, k * v.Y} }

// Mat2 is a 2×2 matrix
//
//	| A B |
//	| C D |
type Mat2 struct {
	A, B, C, D float64
}

// Identity2 returns the 2×2 identity.
func Identity2() Mat2 { return Mat2{A: 1, D: 1} }

// Diag2 returns diag(a, d).
func Diag2(a, d float64) Mat2 { return Mat2{A: a, D: d} }

// Add returns m + n.
func (m Mat2) Add(n Mat2) Mat2 {
	return Mat2{m.A + n.A, m.B + n.B, m.C + n.C, m.D + n.D}
}

// Sub returns m - n.
func (m Mat2) Sub(n Mat2) Mat2 {
	return Mat2{m.A - n.A, m.B - n.B, m.C - n.C, m.D - n.D}
}

// Mul returns the matrix product m·n.
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		A: m.A*n.A + m.B*n.C,
		B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C,
		D: m.C*n.B + m.D*n.D,
	}
}

// MulVec returns m·v.
func (m Mat2) MulVec(v Vec2) Vec2 {
	return Vec2{m.A*v.X + m.B*v.Y, m.C*v.X + m.D*v.Y}
}

// Transpose returns mᵀ.
func (m Mat2) Transpose() Mat2 { return Mat2{m.A, m.C, m.B, m.D} }

// Det returns the determinant.
func (m Mat2) Det() float64 { return m.A*m.D - m.B*m.C }

// Inverse returns m⁻¹.  It reports ok=false when the matrix is singular
// (|det| below 1e-300), in which case the returned matrix is the zero value.
func (m Mat2) Inverse() (Mat2, bool) {
	det := m.Det()
	if math.Abs(det) < 1e-300 {
		return Mat2{}, false
	}
	inv := 1 / det
	return Mat2{A: m.D * inv, B: -m.B * inv, C: -m.C * inv, D: m.A * inv}, true
}

// String implements fmt.Stringer.
func (m Mat2) String() string {
	return fmt.Sprintf("[%.4g %.4g; %.4g %.4g]", m.A, m.B, m.C, m.D)
}
