//go:build amd64 && !purego

package mat

import "math"

// dotTier selects the kernels of VecMatInto and MidRadInto.  The AVX2
// tier needs AVX2 and an OS that saves the YMM registers; FMA is required
// too, because TanhInto must match math.Exp, which takes its FMA path
// exactly when the CPU has AVX and FMA.  The AVX-512 tier needs all of
// that plus AVX512F and an OS that saves the opmask and ZMM state.
var dotTier = cpuTier()

// tanhTier selects the kernels of TanhInto.  Beyond the CPU check it
// probes math.Tanh itself: GODEBUG=cpu.fma=off (or cpu.avx=off) moves
// math.Exp off its FMA path, and the kernels, which always fuse, would
// then round differently.  Each vector tier must agree on the probe.
var tanhTier = func() tier {
	for t := dotTier; t > tierGo; t-- {
		if tanhProbeAgrees(t) {
			return t
		}
	}
	return tierGo
}()

// cpuTier reports the highest tier whose instructions CPUID announces and
// whose register state XGETBV shows the OS saving: AVX, AVX2, FMA and the
// XMM and YMM state for tierAVX2, and on top AVX512F and the opmask and
// ZMM state (XCR0 bits 1, 2 and 5–7) for tierAVX512.  The 512-bit kernels
// use only AVX512F instructions (VPANDQ, VPORQ and VPXORQ for the bit
// operations), so they need neither DQ nor VL.
func cpuTier() tier {
	const (
		ecxFMA       = 1 << 12
		ecxOSXSAVE   = 1 << 27
		ecxAVX       = 1 << 28
		ebxAVX2      = 1 << 5
		ebxAVX512F   = 1 << 16
		xcrSSEAVX    = 1<<1 | 1<<2
		xcrAVX512ZMM = xcrSSEAVX | 1<<5 | 1<<6 | 1<<7
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierGo
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(ecxFMA|ecxOSXSAVE|ecxAVX) != ecxFMA|ecxOSXSAVE|ecxAVX {
		return tierGo
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	switch {
	case xcr0&xcrSSEAVX != xcrSSEAVX || ebx7&ebxAVX2 == 0:
		return tierGo
	case xcr0&xcrAVX512ZMM != xcrAVX512ZMM || ebx7&ebxAVX512F == 0:
		return tierAVX2
	}
	return tierAVX512
}

// tanhProbe holds inputs of the exp branch (0.625 ≤ |x| ≤ MAXLOG/2) on
// which math.Tanh differs between math.Exp's FMA and plain paths.
var tanhProbe = [...]float64{
	0.7980730504015968, 0.8188759844369313, 1.0688524603201848, 0.7968639862143675,
	0.9422851245725059, 2.8641088702934256, 1.1744125940019097, 0.8588256691945775,
	-1.2135952279912494, -1.6597077626180103, -2.6792498440082486, -1.59385136315976,
}

// tanhProbeAgrees reports whether tier t's vector kernel matches
// math.Tanh bitwise on every value of tanhProbe, which it takes in
// windows of its own block width.
func tanhProbeAgrees(t tier) bool {
	w := 4
	if t == tierAVX512 {
		w = 8
	}
	var got [8]float64
	for i := 0; i+w <= len(tanhProbe); i += 4 {
		tanh(t, got[:w], tanhProbe[i:i+w])
		for q, x := range tanhProbe[i : i+w] {
			if math.Float64bits(got[q]) != math.Float64bits(math.Tanh(x)) {
				return false
			}
		}
	}
	return true
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// vecMatAVX2 is VecMatInto's AVX2 kernel for len(dst) a multiple of 4,
// over a weight matrix with row stride stride, starting at wt[0].
//
//go:noescape
func vecMatAVX2(dst, x, wt, b []float64, stride int)

// vecMatAVX512 is VecMatInto's AVX-512 kernel for len(dst) a multiple
// of 32.
//
//go:noescape
func vecMatAVX512(dst, x, wt, b []float64, stride int)

// midRadAVX2 is MidRadInto's AVX2 kernel for len(c2) a multiple of 4, over
// a weight matrix with row stride stride.
//
//go:noescape
func midRadAVX2(c2, r2, c, r, wt []float64, stride int)

// midRadAVX512 is MidRadInto's AVX-512 kernel for len(c2) a multiple
// of 16.
//
//go:noescape
func midRadAVX512(c2, r2, c, r, wt []float64, stride int)

// tanhAVX2 is TanhInto's AVX2 kernel for len(src) a multiple of 4.
//
//go:noescape
func tanhAVX2(dst, src []float64)

// tanhAVX512 is TanhInto's AVX-512 kernel for len(src) a multiple of 8.
//
//go:noescape
func tanhAVX512(dst, src []float64)
