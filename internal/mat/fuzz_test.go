package mat

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsOf decodes data as little-endian float64 bit patterns, so the
// fuzzer reaches every NaN payload, subnormal and infinity.
func floatsOf(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// FuzzTanhInto compares TanhInto with math.Tanh bit for bit, on every
// tier, on all the decoded values and on every prefix of up to 67 of
// them, so one input covers every length up to 67 and every tail of the
// eight- and four-lane kernels (longer prefixes would make the check
// quadratic in the input).  The committed corpus
// (testdata/fuzz/FuzzTanhInto) holds ±0, ±Inf, NaN payloads, subnormals,
// the branch edges 0.625 and 0.5·MAXLOG with their neighbours, at lengths
// up to 67.
func FuzzTanhInto(f *testing.F) {
	tiers := hostTiers(f, tanhTier)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := floatsOf(data)
		for _, tr := range tiers {
			checkTanh(t, tr, xs)
			for n := 0; n <= min(len(xs), 67); n++ {
				checkTanh(t, tr, xs[:n])
			}
		}
	})
}

// FuzzMidRadInto compares MidRadInto, on every tier, with VecMatInto on
// the same weights (and on |w|) at a zero bias for m = out mod 33 outputs
// and every input width up to in mod 68.  Operands cycle through the
// decoded values: x, then r, then the in×m weights row by row.  The
// committed corpus (testdata/fuzz/FuzzMidRadInto) runs widths 0–67 at
// m = 1, 24 and 32 (and the tails at 7), on finite values and on
// specials.
func FuzzMidRadInto(f *testing.F) {
	tiers := hostTiers(f, dotTier)
	f.Fuzz(func(t *testing.T, data []byte, in, out uint8) {
		vals := floatsOf(data)
		n, m := int(in)%68, int(out)%33
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		x, r, wt := make([]float64, n), make([]float64, n), make([]float64, n*m)
		for k := 0; k < n; k++ {
			x[k], r[k] = at(k), at(n+k)
		}
		for i := range wt {
			wt[i] = at(2*n + i)
		}
		aw := absAll(wt)
		for _, tr := range tiers {
			for k := 0; k <= n; k++ {
				checkMidRad(t, tr, x, r, wt, aw, m, k)
			}
		}
	})
}

// FuzzDotRowsInto compares VecMatInto, on every tier, with the naive
// loop plus the bias bit for bit on m = out mod 36 outputs at every input
// width up to in mod 68: the weights of width k are the first k rows of
// an (in mod 68)×m matrix wt.  Operands cycle through the decoded values:
// x, then the weights column by column (wt[q·m+j] is value n + j·n + q,
// the operand order of the row-major DotRowsInto that VecMatInto
// replaced with the same bits), then the m biases.  The target keeps
// that kernel's name, so its committed corpus
// (testdata/fuzz/FuzzDotRowsInto) and its inputs keep their meaning: it
// runs widths 0–67 at m = 1, 7, 32 and 35, on finite values and on
// specials, and biases of +0 and −0, NaN payloads and ±Inf on the vector
// blocks and on the Go tail (bias-*).
func FuzzDotRowsInto(f *testing.F) {
	tiers := hostTiers(f, dotTier)
	f.Fuzz(func(t *testing.T, data []byte, in, out uint8) {
		vals := floatsOf(data)
		n, m := int(in)%68, int(out)%36
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		x, wt, b := make([]float64, n), make([]float64, n*m), make([]float64, m)
		for k := range x {
			x[k] = at(k)
		}
		for j := 0; j < m; j++ {
			for q := 0; q < n; q++ {
				wt[q*m+j] = at(n + j*n + q)
			}
			b[j] = at(n + m*n + j)
		}
		for _, tr := range tiers {
			for k := 0; k <= n; k++ {
				checkVecMat(t, tr, x[:k], wt[:k*m], b, m)
			}
		}
	})
}
