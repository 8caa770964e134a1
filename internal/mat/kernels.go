package mat

import (
	"fmt"
	"math"
)

// The kernels below serve the certified step: MidRadInto runs the IBP
// weight passes over a transposed (in × out) weight snapshot, and
// TanhInto is the activation of Network.Predict1's tanh layers.  Each has
// a portable Go twin, and on amd64 an AVX2 version that is bitwise equal
// to it.  The AVX2 versions take blocks of four values when a one-time
// CPU check allows (kernels_amd64.go); the twins take the rest, and
// everything off amd64 or under -tags purego.  The differential tests and
// fuzz targets check both paths against an independent oracle:
// DotRowsInto on the transposed weights for MidRadInto, math.Tanh for
// TanhInto.  Under -tags purego they check the twins, the portable path,
// against that same oracle.

// MidRadInto runs the two IBP passes of a layer in one sweep over wt, the
// len(c)×m row-major transposed weights: c2[j] = Σ_k c[k]·wt[k·m+j] and
// r2[j] = Σ_k r[k]·|wt[k·m+j]| for every j < m = len(c2), with
// len(r) = len(c).  The centre and the radius keep separate accumulators;
// each starts at +0 and adds its products in k-ascending order, so c2 is
// bitwise DotRowsInto(c2, c, w) with w the transpose of wt, and r2 is
// DotRowsInto(r2, r, |w|).  The AVX2 version keeps one output per lane
// and uses separate multiplies and adds, never a fused multiply-add.
func MidRadInto(c2, r2, c, r, wt []float64) {
	m := len(c2)
	if len(r2) != m || len(r) != len(c) {
		panic(fmt.Sprintf("mat: MidRadInto shapes c2 %d, r2 %d, c %d, r %d", m, len(r2), len(c), len(r)))
	}
	if len(wt) < len(c)*m {
		panic(fmt.Sprintf("mat: MidRadInto weights hold %d values, want %d×%d", len(wt), len(c), m))
	}
	j := 0
	if useAsm {
		j = m &^ 3
		midRadAsm(c2[:j], r2[:j], c, r, wt, m)
	}
	midRadGo(c2, r2, c, r, wt, j)
}

// TanhInto sets dst[i] = math.Tanh(src[i]) for every i < len(src),
// bitwise, NaN payloads included.  dst must hold len(src) values; it may
// alias src exactly.  The AVX2 version evaluates math.Tanh's own branches
// four lanes at a time: the rational function below 0.625, the
// 1 − 2/(exp(2|x|)+1) branch on amd64's FMA path of math.Exp, and ±1
// above MAXLOG/2.  The last len(src) mod 4 values call math.Tanh.
func TanhInto(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("mat: TanhInto dst holds %d values, want %d", len(dst), len(src)))
	}
	i := 0
	if useAsmTanh {
		i = len(src) &^ 3
		tanhAsm(dst[:i], src[:i])
	}
	for ; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// midRadGo is MidRadInto's portable twin for the outputs from j0 on.
func midRadGo(c2, r2, c, r, wt []float64, j0 int) {
	m := len(c2)
	if j0 == m {
		return
	}
	dc, dr := c2[j0:], r2[j0:]
	clear(dc)
	clear(dr)
	for k, ck := range c {
		rk := r[k]
		for j, w := range wt[k*m+j0 : (k+1)*m] {
			dc[j] += ck * w
			dr[j] += rk * math.Abs(w)
		}
	}
}
