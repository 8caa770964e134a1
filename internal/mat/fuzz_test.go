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

// FuzzTanhInto compares TanhInto with math.Tanh bit for bit on all the
// decoded values and on every prefix of up to 67 of them, so one input
// covers every length up to 67 and every tail of the four-lane kernel
// (longer prefixes would make the check quadratic in the input).  The
// committed corpus (testdata/fuzz/FuzzTanhInto) holds ±0, ±Inf, NaN
// payloads, subnormals, the branch edges 0.625 and 0.5·MAXLOG with their
// neighbours, at lengths up to 67.
func FuzzTanhInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := floatsOf(data)
		checkTanh(t, xs)
		for n := 0; n <= min(len(xs), 67); n++ {
			checkTanh(t, xs[:n])
		}
	})
}

// FuzzMidRadInto compares MidRadInto with DotRowsInto on the transposed
// weights (and on |w|) for m = out mod 33 outputs and every input width
// up to in mod 68.  Operands cycle through the decoded
// values: x, then r, then the in×m weights row by row.  The committed
// corpus (testdata/fuzz/FuzzMidRadInto) runs widths 0–67 at m = 1, 24
// and 32 (and the tails at 7), on finite values and on specials.
func FuzzMidRadInto(f *testing.F) {
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
		w, aw := transpose(wt, n, m, false), transpose(wt, n, m, true)
		for k := 0; k <= n; k++ {
			checkDotKernels(t, x, r, wt, w, aw, m, k)
		}
	})
}

// FuzzDotRowsInto compares DotRowsInto with the naive loop plus the bias
// bit for bit on m = out mod 36 outputs at every input width up to
// in mod 68: the weights of width k are the first k columns of an
// m×(in mod 68) matrix.  Operands cycle through the decoded values: x,
// then the weights row by row, then the m biases.  The committed corpus
// (testdata/fuzz/FuzzDotRowsInto) runs widths 0–67 at m = 1, 7, 32 and
// 35, on finite values and on specials, and biases of +0 and −0, NaN
// payloads and ±Inf on the 16-output blocks and on the Go tail (bias-*).
func FuzzDotRowsInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, in, out uint8) {
		vals := floatsOf(data)
		n, m := int(in)%68, int(out)%36
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		x, b := make([]float64, n), make([]float64, m)
		for k := range x {
			x[k] = at(k)
		}
		for j := range b {
			b[j] = at(n + m*n + j)
		}
		for k := 0; k <= n; k++ {
			w := make([]float64, m*k)
			for j := 0; j < m; j++ {
				for q := 0; q < k; q++ {
					w[j*k+q] = at(n + j*n + q)
				}
			}
			checkDotRows(t, x[:k], w, b, m)
		}
	})
}
