//go:build amd64 && !purego

package mat

import "math"

// useAsm selects the AVX2 kernel of MidRadInto.  It needs AVX2 and an
// OS that saves the YMM registers; FMA is required too, because TanhInto
// must match math.Exp, which takes its FMA path exactly when the CPU has
// AVX and FMA.
var useAsm = hasAVX2FMA()

// useAsmTanh selects the AVX2 kernel of TanhInto.  Beyond the CPU check
// it probes math.Tanh itself: GODEBUG=cpu.fma=off (or cpu.avx=off) moves
// math.Exp off its FMA path, and the kernel, which always fuses, would
// then round differently.
var useAsmTanh = useAsm && tanhProbeAgrees()

// hasAVX2FMA reports whether CPUID announces AVX, AVX2 and FMA and XGETBV
// shows the OS saving the XMM and YMM state.
func hasAVX2FMA() bool {
	const (
		ecxFMA     = 1 << 12
		ecxOSXSAVE = 1 << 27
		ecxAVX     = 1 << 28
		ebxAVX2    = 1 << 5
		xcrSSEAVX  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(ecxFMA|ecxOSXSAVE|ecxAVX) != ecxFMA|ecxOSXSAVE|ecxAVX {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xcrSSEAVX != xcrSSEAVX {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&ebxAVX2 != 0
}

// tanhProbe holds inputs of the exp branch (0.625 ≤ |x| ≤ MAXLOG/2) on
// which math.Tanh differs between math.Exp's FMA and plain paths.
var tanhProbe = [...]float64{
	0.7980730504015968, 0.8188759844369313, 1.0688524603201848, 0.7968639862143675,
	0.9422851245725059, 2.8641088702934256, 1.1744125940019097, 0.8588256691945775,
	-1.2135952279912494, -1.6597077626180103, -2.6792498440082486, -1.59385136315976,
}

// tanhProbeAgrees reports whether tanhAsm matches math.Tanh bitwise on
// tanhProbe.
func tanhProbeAgrees() bool {
	var got [len(tanhProbe)]float64
	tanhAsm(got[:], tanhProbe[:])
	for i, x := range tanhProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// midRadAsm is MidRadInto's AVX2 kernel for len(c2) a multiple of 4, over
// a weight matrix with row stride stride.
//
//go:noescape
func midRadAsm(c2, r2, c, r, wt []float64, stride int)

// tanhAsm is TanhInto's AVX2 kernel for len(src) a multiple of 4.
//
//go:noescape
func tanhAsm(dst, src []float64)
