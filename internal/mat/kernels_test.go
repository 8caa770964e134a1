package mat

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// hostTiers returns the tiers from tierGo up to top that this build and
// CPU run, and logs them, so a test's output shows which kernels it
// checked.
func hostTiers(t testing.TB, top tier) []tier {
	t.Helper()
	var ts []tier
	for tr := tierGo; tr <= top; tr++ {
		ts = append(ts, tr)
	}
	t.Logf("kernel tiers run: %v", ts)
	return ts
}

// absAll returns |w| element-wise.
func absAll(w []float64) []float64 {
	a := make([]float64, len(w))
	for i, v := range w {
		a[i] = math.Abs(v)
	}
	return a
}

// sameBits reports whether got and want are the same float64, bit for bit,
// except that any NaN matches any NaN: the kernels leave the payload of a
// NaN formed from two NaN operands to the operand order.
func sameBits(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkMidRad runs MidRadInto on tier tr over the first k inputs of x and
// r and the first k rows of wt (len(x)×m), and compares every output with
// VecMatInto, at a zero bias, on the same rows of wt and of aw = |wt|.
func checkMidRad(t testing.TB, tr tier, x, r, wt, aw []float64, m, k int) {
	t.Helper()
	gotC := make([]float64, m)
	gotR := make([]float64, m)
	midRad(tr, gotC, gotR, x[:k], r[:k], wt[:k*m])
	wantC := make([]float64, m)
	wantR := make([]float64, m)
	zero := make([]float64, m)
	VecMatInto(wantC, x[:k], wt[:k*m], zero)
	VecMatInto(wantR, r[:k], aw[:k*m], zero)
	for j := 0; j < m; j++ {
		if !sameBits(gotC[j], wantC[j]) {
			t.Fatalf("%v k=%d m=%d: MidRadInto centre %d = %v (%#x), VecMatInto %v (%#x)",
				tr, k, m, j, gotC[j], math.Float64bits(gotC[j]), wantC[j], math.Float64bits(wantC[j]))
		}
		if !sameBits(gotR[j], wantR[j]) {
			t.Fatalf("%v k=%d m=%d: MidRadInto radius %d = %v (%#x), VecMatInto on |w| %v (%#x)",
				tr, k, m, j, gotR[j], math.Float64bits(gotR[j]), wantR[j], math.Float64bits(wantR[j]))
		}
	}
}

// specialFloats are the operands that expose ordering and sign handling:
// ±0, subnormals, ±Inf, NaNs with payloads (quiet and signalling, both
// signs) and magnitudes that overflow or cancel.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456),
	math.Float64frombits(0x7ff0000000000789), math.Float64frombits(0xfff00000000abcde),
	1e308, -1e308, 1, -1,
}

// TestMidRadMatchesVecMat pins MidRadInto bit for bit to VecMatInto on
// the same weights (and on |w|), on every tier, for every input width 0–9
// plus 24 and 32 and every output count 0–35 (the 16-, 8- and 4-wide
// blocks and the scalar tail), on finite operands whose long sums round
// and on operands mixed with specialFloats: 4.25M operands per tier.
func TestMidRadMatchesVecMat(t *testing.T) {
	tiers := hostTiers(t, dotTier)
	rng := rand.New(rand.NewSource(21))
	draw := func(specials bool) float64 {
		if specials && rng.Intn(8) == 0 {
			return specialFloats[rng.Intn(len(specialFloats))]
		}
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(9)-4))
	}
	widths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 32}
	for _, n := range widths {
		for m := 0; m <= 35; m++ {
			for rep := 0; rep < 60; rep++ {
				specials := rep%2 == 1
				x := make([]float64, n)
				r := make([]float64, n)
				wt := make([]float64, n*m)
				for k := range x {
					x[k], r[k] = draw(specials), draw(specials)
				}
				for k := range wt {
					wt[k] = draw(specials)
				}
				aw := absAll(wt)
				for _, tr := range tiers {
					checkMidRad(t, tr, x, r, wt, aw, m, n)
				}
			}
		}
	}
}

// checkVecMat compares VecMatInto on tier tr, over x, the len(x)×m
// row-major weights wt and the bias b, with the naive one-accumulator
// loop plus the bias, its oracle, bit for bit (any NaN matching any NaN,
// see sameBits).
func checkVecMat(t testing.TB, tr tier, x, wt, b []float64, m int) {
	t.Helper()
	got := make([]float64, m)
	vecMat(tr, got, x, wt, b)
	for j := 0; j < m; j++ {
		var s float64
		for k, xk := range x {
			s += xk * wt[k*m+j]
		}
		s += b[j]
		if !sameBits(got[j], s) {
			t.Fatalf("%v n=%d m=%d: dst[%d] = %v (%#x), naive %v (%#x), bias %v (%#x)",
				tr, len(x), m, j, got[j], math.Float64bits(got[j]), s, math.Float64bits(s), b[j], math.Float64bits(b[j]))
		}
	}
}

// dotBias fills b with one of six bias patterns: finite values, +0, −0,
// specialFloats (±0, ±Inf, NaN payloads, overflowing magnitudes), finite
// values mixed with specialFloats, and alternating ±Inf and NaNs.
func dotBias(rng *rand.Rand, b []float64, pattern int, draw func(bool) float64) {
	nans := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff00000000abcde)}
	for j := range b {
		switch pattern % 6 {
		case 0:
			b[j] = draw(false)
		case 1:
			b[j] = 0
		case 2:
			b[j] = math.Copysign(0, -1)
		case 3:
			b[j] = specialFloats[rng.Intn(len(specialFloats))]
		case 4:
			b[j] = draw(true)
		default:
			if j%2 == 0 {
				b[j] = math.Inf(1 - 2*(j/2%2))
			} else {
				b[j] = nans[j/2%len(nans)]
			}
		}
	}
}

// TestVecMatMatchesNaive pins VecMatInto bit for bit to the naive loop
// plus the bias, on every tier, for every input width 0–67 and every
// output count 0–35, plus 51, 55 and 67 (the 32-, 16- and 4-output blocks
// in every combination with the Go twin's tail), which holds the
// planners' 5×32, 32×32 and 32×1 layers.  Even repetitions keep the
// operands finite, so the rounding of long sums shows; odd ones mix in
// specialFloats, whose sums overflow and cancel.  The six repetitions take
// the six bias patterns of dotBias, so zero and signed-zero biases, NaN
// payloads and ±Inf reach the vector blocks and the Go tail alike, on top
// of finite and special sums.
func TestVecMatMatchesNaive(t *testing.T) {
	tiers := hostTiers(t, dotTier)
	rng := rand.New(rand.NewSource(9))
	draw := func(specials bool) float64 {
		if specials && rng.Intn(8) == 0 {
			return specialFloats[rng.Intn(len(specialFloats))]
		}
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(9)-4))
	}
	outs := []int{51, 55, 67}
	for m := 35; m >= 0; m-- {
		outs = append([]int{m}, outs...)
	}
	for n := 0; n <= 67; n++ {
		for _, m := range outs {
			for rep := 0; rep < 6; rep++ {
				x := make([]float64, n)
				wt := make([]float64, n*m)
				b := make([]float64, m)
				for k := range x {
					x[k] = draw(rep%2 == 1)
				}
				for k := range wt {
					wt[k] = draw(rep%2 == 1)
				}
				dotBias(rng, b, rep, draw)
				for _, tr := range tiers {
					checkVecMat(t, tr, x, wt, b, m)
				}
			}
		}
	}
}

// TestKernelShapePanics pins the shape checks.
func TestKernelShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MidRadInto short wt": func() {
			MidRadInto(make([]float64, 3), make([]float64, 3), make([]float64, 4), make([]float64, 4), make([]float64, 11))
		},
		"MidRadInto r2": func() { MidRadInto(make([]float64, 3), make([]float64, 2), nil, nil, nil) },
		"MidRadInto r":  func() { MidRadInto(nil, nil, make([]float64, 2), make([]float64, 1), nil) },
		"VecMatInto short bias": func() {
			VecMatInto(make([]float64, 3), make([]float64, 4), make([]float64, 12), make([]float64, 2))
		},
		"TanhInto short": func() { TanhInto(make([]float64, 3), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// tanhEdges are math.Tanh's branch points, 0.625 and 0.5·MAXLOG.
var tanhEdges = []float64{0.625, 0.5 * 8.8029691931113054295988e+01}

// checkTanh compares TanhInto on tier tr with math.Tanh bit for bit, NaN
// payloads included.
func checkTanh(t testing.TB, tr tier, xs []float64) {
	t.Helper()
	got := make([]float64, len(xs))
	tanh(tr, got, xs)
	for i, x := range xs {
		if want := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%v: TanhInto(%v [%#x]) = %v (%#x), math.Tanh %v (%#x)",
				tr, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestTanhIntoMatchesMathTanh is the 4M-input differential test of
// TanhInto against math.Tanh, on every tier: uniform bit patterns (every
// NaN payload, subnormals, ±Inf), uniform values over both branches and
// beyond 0.5·MAXLOG, and the neighbourhoods of the branch edges.
func TestTanhIntoMatchesMathTanh(t *testing.T) {
	const total = 1 << 22
	if testing.Short() {
		t.Skip("4M-input sweep skipped with -short")
	}
	tiers := hostTiers(t, tanhTier)
	rng := rand.New(rand.NewSource(22))
	xs := make([]float64, 1<<12)
	for done := 0; done < total; done += len(xs) {
		for i := range xs {
			switch rng.Intn(6) {
			case 0:
				xs[i] = math.Float64frombits(rng.Uint64())
			case 1:
				xs[i] = (rng.Float64()*2 - 1) * 50
			case 2:
				xs[i] = (rng.Float64()*2 - 1) * 2
			case 3:
				e := tanhEdges[rng.Intn(len(tanhEdges))]
				xs[i] = math.Float64frombits(math.Float64bits(e) + uint64(rng.Intn(65)) - 32)
			case 4:
				xs[i] = math.Ldexp(rng.Float64(), -rng.Intn(1100))
			default:
				xs[i] = specialFloats[rng.Intn(len(specialFloats))]
			}
			if rng.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		}
		for _, tr := range tiers {
			checkTanh(t, tr, xs)
		}
	}
	for _, tr := range tiers {
		for n := 0; n <= 17; n++ {
			checkTanh(t, tr, xs[1:1+n])
		}
	}
}

// TestTanhIntoWithoutMathFMA reruns the sweep above in a child process
// with GODEBUG=cpu.fma=off, which moves math.Exp off its FMA path: the
// probe in kernels_amd64.go must then fall back to math.Tanh.
func TestTanhIntoWithoutMathFMA(t *testing.T) {
	if dotTier == tierGo || testing.Short() {
		t.Skip("needs the vector kernels and the full sweep")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTanhIntoMatchesMathTanh$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sweep with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestTanhIntoAliases pins the in-place form TanhInto(x, x) that
// nn.Dense.Forward relies on, on every tier.
func TestTanhIntoAliases(t *testing.T) {
	in := []float64{-3, -0.7, -0.1, 0, 0.2, 0.65, 1.5, 45, 0.3, -2, 0.9, 7, -0.01}
	for _, tr := range hostTiers(t, tanhTier) {
		xs := append([]float64(nil), in...)
		tanh(tr, xs, xs)
		for i, x := range in {
			if want := math.Tanh(x); xs[i] != want {
				t.Fatalf("%v in place: [%d] = %v, want %v", tr, i, xs[i], want)
			}
		}
	}
}

// TestVectorTanhSelected fails when a CPU that runs a tier of vector dot
// kernels leaves that tier's tanh kernel off: its probe disagreeing with
// math.Tanh would mean math.Exp left the FMA path the kernel replays.
func TestVectorTanhSelected(t *testing.T) {
	if dotTier == tierGo || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("no vector kernels on this build or CPU, or CPU features masked by GODEBUG")
	}
	if tanhTier != dotTier {
		t.Fatalf("the %v tanh kernel disagrees with math.Tanh on its probe inputs (tanh tier %v)", dotTier, tanhTier)
	}
}

// benchShapes are the layer shapes of the shipped planners and of the
// IBP benchmark network.
var benchShapes = []struct{ in, out int }{{5, 32}, {32, 32}, {24, 24}}

func benchOperands(in, out int) (x, r, wt []float64) {
	rng := rand.New(rand.NewSource(24))
	x, r, wt = make([]float64, in), make([]float64, in), make([]float64, in*out)
	for k := range x {
		x[k], r[k] = rng.NormFloat64(), rng.ExpFloat64()
	}
	for k := range wt {
		wt[k] = rng.NormFloat64()
	}
	return x, r, wt
}

// BenchmarkVecMatInto times Predict1's affine kernel, the bias add
// included, on the planners' layer shapes, in×out: 5×32, 32×32 and the
// 32×1 output layer (the Go tail alone).
func BenchmarkVecMatInto(b *testing.B) {
	for _, s := range []struct{ in, out int }{{5, 32}, {32, 32}, {32, 1}} {
		b.Run(fmt.Sprintf("%dx%d", s.in, s.out), func(b *testing.B) {
			x, _, w := benchOperands(s.in, s.out)
			bias, _, _ := benchOperands(s.out, 0)
			dst := make([]float64, s.out)
			for i := 0; i < b.N; i++ {
				VecMatInto(dst, x, w, bias)
			}
		})
	}
}

// BenchmarkMidRadInto times the fused centre and radius passes of a layer.
func BenchmarkMidRadInto(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", s.in, s.out), func(b *testing.B) {
			c, r, wt := benchOperands(s.in, s.out)
			c2, r2 := make([]float64, s.out), make([]float64, s.out)
			for i := 0; i < b.N; i++ {
				MidRadInto(c2, r2, c, r, wt)
			}
		})
	}
}

// BenchmarkTanhInto times one tanh layer of a given width.
func BenchmarkTanhInto(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", s.in, s.out), func(b *testing.B) {
			z, _, _ := benchOperands(s.out, 0)
			dst := make([]float64, s.out)
			for i := 0; i < b.N; i++ {
				TanhInto(dst, z)
			}
		})
	}
}
