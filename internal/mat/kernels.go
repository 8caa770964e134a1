package mat

import (
	"fmt"
	"math"
)

// The kernels below serve the certified step.  VecMatInto is the affine
// kernel of every nn.Dense forward pass (Network.Predict1 and training):
// it multiplies by the transposed (in × out) weights Wᵀ the layer keeps
// for inference and adds the bias as it stores each output.  MidRadInto
// runs the IBP weight passes over the same layout; TanhInto is the
// activation of the tanh layers.  Each has a portable Go twin and, on
// amd64, vector versions that are bitwise equal to it, in three tiers
// chosen once by a CPU check (kernels_amd64.go):
//
//   - tierAVX512: AVX2 and FMA plus AVX512F and the OS-saved opmask and
//     ZMM state.  The 512-bit kernels take blocks of 32 outputs
//     (VecMatInto), 16 outputs (MidRadInto) or 8 values (TanhInto).
//   - tierAVX2: AVX, AVX2, FMA and the OS-saved YMM state.  The 256-bit
//     kernels take blocks of 16 and then 4 outputs (VecMatInto), 8 and
//     then 4 (MidRadInto) or 4 values (TanhInto), and the 512-bit
//     kernels' tails.
//   - tierGo: the twins, which take the rest, and everything off amd64
//     or under -tags purego.
//
// The IBP's tanh epilogue (internal/nn/ibp) follows the same tiers
// through AVX512 and AVX2: 8 rows per AVX-512 block, then 4 per AVX2
// block, then its Go twin.
//
// The differential tests and fuzz targets run every tier the host
// supports against an independent oracle: the naive one-accumulator loop
// plus the bias for VecMatInto, VecMatInto on Wᵀ and |Wᵀ| with a zero
// bias for MidRadInto, math.Tanh for TanhInto.

// tier is a level of kernel implementation; a higher tier runs its own
// blocks and hands its tails to the tiers below it.
type tier int

const (
	tierGo tier = iota
	tierAVX2
	tierAVX512
)

func (t tier) String() string {
	return [...]string{"go", "avx2", "avx512"}[t]
}

// AVX2 reports whether this build and CPU run the package's AVX2 kernels,
// by the one-time check of kernels_amd64.go: false off amd64, under
// -tags purego, or without AVX, AVX2, FMA and OS-saved YMM state.  It
// stays true on a CPU that also runs the AVX-512 tier, whose tails take
// the AVX2 kernels.  Kernels outside the package that follow the same
// bit-exact discipline (the IBP's tanh epilogue) dispatch on it and on
// AVX512.
func AVX2() bool { return dotTier >= tierAVX2 }

// AVX512 reports whether this build and CPU run the package's AVX-512
// kernels, by the same check: AVX2 plus AVX512F and OS-saved opmask and
// ZMM state.
func AVX512() bool { return dotTier >= tierAVX512 }

// VecMatInto sets dst[j] = Σ_k x[k]·wt[k·m+j] + b[j] for every
// j < m = len(dst): the row vector x times the len(x)×m row-major matrix
// wt, plus the bias b.  It is the affine step of nn.Dense.Forward (so
// Network.Predict1 and training) over the layer's Wᵀ, and, with a zero
// bias, the reference that MidRadInto, the IBP passes over the same
// layout, equals bit for bit.
//
// Every output accumulates s += x[k]·wt[k·m+j] from +0 in k-ascending
// order and then stores s + b[j], so the result is bitwise the naive loop
// followed by the bias add, its oracle.  A sum that starts from +0 is
// never −0, so a zero bias of either sign leaves it unchanged.  The
// vector versions keep one output per lane, broadcast x[k] against a
// contiguous run of row k, multiply and add separately (never a fused
// multiply-add), and add the bias with one VADDPD per register before
// the store.
func VecMatInto(dst, x, wt, b []float64) {
	m := len(dst)
	if len(wt) < len(x)*m {
		panic(fmt.Sprintf("mat: VecMatInto weights hold %d values, want %d×%d", len(wt), len(x), m))
	}
	if len(b) < m {
		panic(fmt.Sprintf("mat: VecMatInto bias holds %d values, want %d", len(b), m))
	}
	vecMat(dotTier, dst, x, wt, b)
}

// vecMat is VecMatInto on tier t and below, for checked shapes.
func vecMat(t tier, dst, x, wt, b []float64) {
	m := len(dst)
	j := 0
	if t >= tierAVX512 && m >= 32 {
		j = m &^ 31
		vecMatAVX512(dst[:j], x, wt, b, m)
	}
	if t >= tierAVX2 && m-j >= 4 {
		j2 := m &^ 3
		vecMatAVX2(dst[j:j2], x, wt[min(j, len(wt)):], b[j:], m)
		j = j2
	}
	if m-j < 4 {
		// A few outputs (the vector tiers' tails, a one-output layer)
		// keep one sum each in a register.
		for ; j < m; j++ {
			dst[j] = colDot(x, wt, m, j) + b[j]
		}
		return
	}
	vecMatGo(dst, x, wt, b, j)
}

// MidRadInto runs the two IBP passes of a layer in one sweep over wt, the
// len(c)×m row-major transposed weights: c2[j] = Σ_k c[k]·wt[k·m+j] and
// r2[j] = Σ_k r[k]·|wt[k·m+j]| for every j < m = len(c2), with
// len(r) = len(c).  The centre and the radius keep separate accumulators;
// each starts at +0 and adds its products in k-ascending order, so c2 is
// bitwise VecMatInto(c2, c, wt, 0) and r2 is VecMatInto(r2, r, |wt|, 0).
// The vector versions keep one output per lane and use separate
// multiplies and adds, never a fused multiply-add.
func MidRadInto(c2, r2, c, r, wt []float64) {
	m := len(c2)
	if len(r2) != m || len(r) != len(c) {
		panic(fmt.Sprintf("mat: MidRadInto shapes c2 %d, r2 %d, c %d, r %d", m, len(r2), len(c), len(r)))
	}
	if len(wt) < len(c)*m {
		panic(fmt.Sprintf("mat: MidRadInto weights hold %d values, want %d×%d", len(wt), len(c), m))
	}
	midRad(dotTier, c2, r2, c, r, wt)
}

// midRad is MidRadInto on tier t and below, for checked shapes.
func midRad(t tier, c2, r2, c, r, wt []float64) {
	m := len(c2)
	j := 0
	if t >= tierAVX512 && m >= 16 {
		j = m &^ 15
		midRadAVX512(c2[:j], r2[:j], c, r, wt, m)
	}
	if t >= tierAVX2 && m-j >= 4 {
		j2 := m &^ 3
		midRadAVX2(c2[j:j2], r2[j:j2], c, r, wt[min(j, len(wt)):], m)
		j = j2
	}
	if m-j < 4 {
		// A few outputs keep their two sums in registers.
		for ; j < m; j++ {
			c2[j], r2[j] = colMidRad(c, r, wt, m, j)
		}
		return
	}
	midRadGo(c2, r2, c, r, wt, j)
}

// TanhInto sets dst[i] = math.Tanh(src[i]) for every i < len(src),
// bitwise, NaN payloads included.  dst must hold len(src) values; it may
// alias src exactly.  The vector versions evaluate math.Tanh's own
// branches eight or four lanes at a time: the rational function below
// 0.625, the 1 − 2/(exp(2|x|)+1) branch on amd64's FMA path of math.Exp,
// and ±1 above MAXLOG/2.  The last len(src) mod 4 values call math.Tanh.
func TanhInto(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("mat: TanhInto dst holds %d values, want %d", len(dst), len(src)))
	}
	tanh(tanhTier, dst, src)
}

// tanh is TanhInto on tier t and below, for checked shapes.
func tanh(t tier, dst, src []float64) {
	n := len(src)
	i := 0
	if t >= tierAVX512 && n >= 8 {
		i = n &^ 7
		tanhAVX512(dst[:i], src[:i])
	}
	if t >= tierAVX2 && n-i >= 4 {
		i2 := n &^ 3
		tanhAVX2(dst[i:i2], src[i:i2])
		i = i2
	}
	for ; i < n; i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// vecMatGo is VecMatInto's portable twin for the outputs from j0 on, at
// least four of them (vecMat keeps fewer in registers).  It reads wt row
// by row: each input k adds x[k]·wt[k·m+j] to every output j, so each sum
// still takes its products in ascending k, and the bias follows last.
func vecMatGo(dst, x, wt, b []float64, j0 int) {
	m := len(dst)
	d := dst[j0:]
	clear(d)
	for k, xk := range x {
		row := wt[k*m+j0:][:len(d)]
		for j, w := range row {
			d[j] += xk * w
		}
	}
	for j, bj := range b[j0:m] {
		d[j] += bj
	}
}

// colDot returns Σ_k x[k]·wt[k·m+j], summed from +0 in ascending k, over
// column j of the len(x)×m matrix wt.  A one-column matrix is read as one
// contiguous slice, which is markedly faster than the strided loop.
func colDot(x, wt []float64, m, j int) float64 {
	var s float64
	if m == 1 {
		w := wt[:len(x)]
		for k, xk := range x {
			s += xk * w[k]
		}
		return s
	}
	for k, xk := range x {
		s += xk * wt[k*m+j]
	}
	return s
}

// colMidRad returns Σ_k c[k]·wt[k·m+j] and Σ_k r[k]·|wt[k·m+j]|, each
// summed from +0 in ascending k, over column j of the len(c)×m matrix wt.
// A one-column matrix (an output layer) is read as one contiguous slice,
// as colDot reads it.
func colMidRad(c, r, wt []float64, m, j int) (sc, sr float64) {
	r = r[:len(c)]
	if m == 1 {
		w := wt[:len(c)]
		for k, ck := range c {
			sc += ck * w[k]
			sr += r[k] * math.Abs(w[k])
		}
		return sc, sr
	}
	for k, ck := range c {
		w := wt[k*m+j]
		sc += ck * w
		sr += r[k] * math.Abs(w)
	}
	return sc, sr
}

// midRadGo is MidRadInto's portable twin for the outputs from j0 on, at
// least four of them (midRad keeps fewer in registers).  It reads wt row
// by row, as vecMatGo does, adding input k's centre and radius products
// to every output's two sums.
func midRadGo(c2, r2, c, r, wt []float64, j0 int) {
	m := len(c2)
	sc, sr := c2[j0:], r2[j0:m]
	clear(sc)
	clear(sr)
	r = r[:len(c)]
	for k, ck := range c {
		rk := r[k]
		row := wt[k*m+j0:][:len(sc)]
		for j, w := range row {
			sc[j] += ck * w
			sr[j] += rk * math.Abs(w)
		}
	}
}
