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

// transpose returns the m×n row-major transpose of the n×m matrix wt,
// optionally taking |w|.
func transpose(wt []float64, n, m int, abs bool) []float64 {
	w := make([]float64, m*n)
	for k := 0; k < n; k++ {
		for j := 0; j < m; j++ {
			v := wt[k*m+j]
			if abs {
				v = math.Abs(v)
			}
			w[j*n+k] = v
		}
	}
	return w
}

// sameBits reports whether got and want are the same float64, bit for bit,
// except that any NaN matches any NaN: DotRowsInto leaves the payload of
// a NaN formed from two NaN operands to the compiler's operand order.
func sameBits(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkDotKernels runs MidRadInto on the first k inputs of x and r and
// the first k rows of wt (n×m, n = len(x)), and compares every output j
// with DotRowsInto on the first k entries of row j of w = wtᵀ and
// aw = |wt|ᵀ (m×n, from transpose).
func checkDotKernels(t testing.TB, x, r, wt, w, aw []float64, m, k int) {
	t.Helper()
	n := len(x)
	gotC := make([]float64, m)
	gotR := make([]float64, m)
	MidRadInto(gotC, gotR, x[:k], r[:k], wt[:k*m])
	var wantC, wantR [1]float64
	for j := 0; j < m; j++ {
		DotRowsInto(wantC[:], x[:k], w[j*n:j*n+k])
		DotRowsInto(wantR[:], r[:k], aw[j*n:j*n+k])
		if !sameBits(gotC[j], wantC[0]) {
			t.Fatalf("k=%d m=%d: MidRadInto centre %d = %v (%#x), DotRowsInto %v (%#x)",
				k, m, j, gotC[j], math.Float64bits(gotC[j]), wantC[0], math.Float64bits(wantC[0]))
		}
		if !sameBits(gotR[j], wantR[0]) {
			t.Fatalf("k=%d m=%d: MidRadInto radius %d = %v (%#x), DotRowsInto on |w| %v (%#x)",
				k, m, j, gotR[j], math.Float64bits(gotR[j]), wantR[0], math.Float64bits(wantR[0]))
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

// TestMidRadMatchDotRows pins MidRadInto bit for bit to DotRowsInto on
// the transposed weights (and on |w|), for every input width 0–9 plus 24
// and 32 and every output count 0–35 (the 8- and 4-wide blocks and the
// scalar tail), on finite operands whose long sums
// round and on operands mixed with specialFloats: 4.25M operands in all.
func TestMidRadMatchDotRows(t *testing.T) {
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
				checkDotKernels(t, x, r, wt, transpose(wt, n, m, false), transpose(wt, n, m, true), m, n)
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
		"MidRadInto r2":  func() { MidRadInto(make([]float64, 3), make([]float64, 2), nil, nil, nil) },
		"MidRadInto r":   func() { MidRadInto(nil, nil, make([]float64, 2), make([]float64, 1), nil) },
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

// checkTanh compares TanhInto with math.Tanh bit for bit, NaN payloads
// included.
func checkTanh(t testing.TB, xs []float64) {
	t.Helper()
	got := make([]float64, len(xs))
	TanhInto(got, xs)
	for i, x := range xs {
		if want := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("TanhInto(%v [%#x]) = %v (%#x), math.Tanh %v (%#x)",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestTanhIntoMatchesMathTanh is the 4M-input differential test of
// TanhInto against math.Tanh: uniform bit patterns (every NaN payload,
// subnormals, ±Inf), uniform values over both branches and beyond
// 0.5·MAXLOG, and the neighbourhoods of the branch edges.
func TestTanhIntoMatchesMathTanh(t *testing.T) {
	const total = 1 << 22
	if testing.Short() {
		t.Skip("4M-input sweep skipped with -short")
	}
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
		checkTanh(t, xs)
	}
	for n := 0; n <= 9; n++ {
		checkTanh(t, xs[1:1+n])
	}
}

// TestTanhIntoWithoutMathFMA reruns the sweep above in a child process
// with GODEBUG=cpu.fma=off, which moves math.Exp off its FMA path: the
// probe in kernels_amd64.go must then fall back to math.Tanh.
func TestTanhIntoWithoutMathFMA(t *testing.T) {
	if !useAsm || testing.Short() {
		t.Skip("needs the vector kernels and the full sweep")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTanhIntoMatchesMathTanh$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sweep with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestTanhIntoAliases pins the in-place form TanhInto(x, x) that
// nn.Dense.Forward relies on.
func TestTanhIntoAliases(t *testing.T) {
	xs := []float64{-3, -0.7, -0.1, 0, 0.2, 0.65, 1.5, 45, 0.3}
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = math.Tanh(x)
	}
	TanhInto(xs, xs)
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("in place: [%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

// TestVectorTanhSelected fails when a CPU that runs the vector dot
// kernels leaves the tanh kernel off: its probe disagreeing with
// math.Tanh would mean math.Exp left the FMA path the kernel replays.
func TestVectorTanhSelected(t *testing.T) {
	if !useAsm || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("no vector kernels on this build or CPU, or CPU features masked by GODEBUG")
	}
	if !useAsmTanh {
		t.Fatal("the AVX2 tanh kernel disagrees with math.Tanh on its probe inputs")
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
