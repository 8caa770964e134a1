package mat

import (
	"fmt"
	"math"
)

// The kernels below serve the certified step.  DotRowsInto is the affine
// kernel of every nn.Dense forward pass (Network.Predict1 and training):
// it multiplies by the row-major weights the layer holds and adds the
// bias as it stores each output.  MidRadInto runs the IBP weight passes
// over a transposed (in × out) weight snapshot; TanhInto is the
// activation of the tanh layers.  Each has a portable Go twin, and on
// amd64 an AVX2 version that is bitwise equal to it.  The AVX2 versions
// take blocks of 16 outputs (DotRowsInto) or of four outputs or values
// (the others) when a one-time CPU check allows (kernels_amd64.go); the
// twins take the rest, and everything off amd64 or under -tags purego.
// The differential tests and fuzz targets check both paths against an
// independent oracle: the naive one-accumulator loop plus the bias for
// DotRowsInto, DotRowsInto on the transposed weights with a zero bias for
// MidRadInto, math.Tanh for TanhInto.  Under -tags purego they check the
// twins, the portable path, against that same oracle.

// AVX2 reports whether this build and CPU run the package's AVX2 kernels,
// by the one-time check of kernels_amd64.go: false off amd64, under
// -tags purego, or without AVX, AVX2, FMA and OS-saved YMM state.
// Kernels outside the package that follow the same bit-exact discipline
// (the IBP's tanh epilogue) dispatch on it.
func AVX2() bool { return useAsm }

// DotRowsInto sets dst[j] = Σ_k x[k]·w[j·n+k] + b[j] for every
// j < len(dst), with n = len(x): the row vector x times the transpose of
// the len(dst)×n row-major matrix w, plus the bias b.  It is the affine
// step of nn.Dense.Forward (so Network.Predict1 and training), and, with
// a zero bias, the reference that MidRadInto, the IBP passes over
// transposed weights, equals bit for bit.
//
// Every output accumulates s += x[k]·w[j·n+k] from +0 in k-ascending
// order and then stores s + b[j], so the result is bitwise the naive loop
// followed by the bias add, its oracle.  A sum that starts from +0 is
// never −0, so a zero bias of either sign leaves it unchanged.  The AVX2
// version keeps one output per lane: it transposes 4×4 tiles of four
// weight rows in registers, multiplies and adds separately (never a fused
// multiply-add), runs four groups of four outputs at once, so the
// dependent adds of one output do not set the pace, and adds the bias
// with one VADDPD per group before the store.  The Go twin takes the last
// len(dst) mod 16 outputs.
func DotRowsInto(dst, x, w, b []float64) {
	n := len(x)
	if len(w) < len(dst)*n {
		panic(fmt.Sprintf("mat: DotRowsInto weights hold %d values, want %d×%d", len(w), len(dst), n))
	}
	if len(b) < len(dst) {
		panic(fmt.Sprintf("mat: DotRowsInto bias holds %d values, want %d", len(b), len(dst)))
	}
	j := 0
	if useAsm && len(dst) >= 16 {
		j = len(dst) &^ 15
		dotRowsAsm(dst[:j], x, w, b)
	}
	dotRowsGo(dst, x, w, b, j)
}

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

// dotRowsGo is DotRowsInto's portable twin for the outputs from j0 on:
// four outputs share one pass over x, each with its own accumulator,
// which hides the latency of the dependent adds; a scalar loop finishes
// the last len(dst) mod 4.
func dotRowsGo(dst, x, w, b []float64, j0 int) {
	n := len(x)
	b = b[:len(dst)]
	j := j0
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
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0+b[j], s1+b[j+1], s2+b[j+2], s3+b[j+3]
	}
	for ; j < len(dst); j++ {
		wj := w[j*n:][:n]
		var s float64
		for k, xk := range x {
			s += xk * wj[k]
		}
		dst[j] = s + b[j]
	}
}

// midRadGo is MidRadInto's portable twin for the outputs from j0 on.
// Each output sums its centre and its radius in two locals, from +0 in
// k order.
func midRadGo(c2, r2, c, r, wt []float64, j0 int) {
	m := len(c2)
	r = r[:len(c)]
	for j := j0; j < m; j++ {
		var sc, sr float64
		for k, ck := range c {
			w := wt[k*m+j]
			sc += ck * w
			sr += r[k] * math.Abs(w)
		}
		c2[j], r2[j] = sc, sr
	}
}
