package ibp

import (
	"math"
	"math/rand"
	"testing"

	"safeplan/internal/interval"
	"safeplan/internal/nn"
)

// containTol absorbs the only unsoundness IBP has in float64: library
// activations (math.Tanh, math.Exp) are faithfully but not provably
// monotonically rounded, so a point evaluation may escape the bound by an
// ulp.  The affine stages themselves are exactly monotone (termwise real
// ordering + identical accumulation order + round-to-nearest monotonicity).
const containTol = 1e-9

func tolFor(iv interval.Interval) float64 {
	m := math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi))
	return containTol * math.Max(1, m)
}

// randBox draws a finite box with centers in ±5 and widths in [0, 4).
func randBox(rng *rand.Rand, n int) []interval.Interval {
	box := make([]interval.Interval, n)
	for k := range box {
		c := rng.Float64()*10 - 5
		w := rng.Float64() * 2
		box[k] = interval.New(c-w, c+w)
	}
	return box
}

// randNorm fits a plausible normalizer: arbitrary means, strictly positive
// scales.
func randNorm(rng *rand.Rand, n int) *nn.Normalizer {
	norm := &nn.Normalizer{Mean: make([]float64, n), Std: make([]float64, n)}
	for j := 0; j < n; j++ {
		norm.Mean[j] = rng.Float64()*4 - 2
		norm.Std[j] = 0.25 + rng.Float64()*2
	}
	return norm
}

var hiddenActs = []struct {
	name string
	act  nn.Activation
}{
	{"relu", nn.ReLU{}},
	{"leaky_relu", nn.LeakyReLU{}},
	{"tanh", nn.Tanh{}},
	{"sigmoid", nn.Sigmoid{}},
	{"identity", nn.Identity{}},
}

// TestIBPContainment is the core soundness property: for ~200 random
// networks per activation, Predict1(x) lies inside PredictInterval1(box)
// for dozens of sampled x ∈ box (thousands of point checks per
// activation).
func TestIBPContainment(t *testing.T) {
	for _, tc := range hiddenActs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for caseNo := 0; caseNo < 200; caseNo++ {
				in := 1 + rng.Intn(5)
				hidden := 1 + rng.Intn(12)
				sizes := []int{in, hidden, 1}
				if rng.Intn(2) == 0 {
					sizes = []int{in, hidden, 1 + rng.Intn(8), 1}
				}
				net := nn.NewMLP(rng, tc.act, sizes...)
				var norm *nn.Normalizer
				if rng.Intn(2) == 0 {
					norm = randNorm(rng, in)
				}
				p, err := New(net, norm)
				if err != nil {
					t.Fatalf("case %d: New: %v", caseNo, err)
				}
				box := randBox(rng, in)
				out := p.PredictInterval1(box, nil)
				if out.IsEmpty() || math.IsNaN(out.Lo) || math.IsNaN(out.Hi) {
					t.Fatalf("case %d: bad output interval %v", caseNo, out)
				}
				x := make([]float64, in)
				for s := 0; s < 25; s++ {
					for k := range x {
						x[k] = box[k].Lo + rng.Float64()*(box[k].Hi-box[k].Lo)
					}
					xn := append([]float64(nil), x...)
					if norm != nil {
						norm.Apply(xn)
					}
					y := net.Predict1(xn)
					if tol := tolFor(out); y < out.Lo-tol || y > out.Hi+tol {
						t.Fatalf("case %d sample %d: Predict1 = %v escapes certified %v (act %s)",
							caseNo, s, y, out, tc.name)
					}
				}
			}
		})
	}
}

// TestIBPPointBoxExact pins the bitwise guarantee: a degenerate point box
// propagates to the exact Predict1 value — not within a tolerance, equal.
func TestIBPPointBoxExact(t *testing.T) {
	for _, tc := range hiddenActs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for caseNo := 0; caseNo < 200; caseNo++ {
				in := 1 + rng.Intn(5)
				net := nn.NewMLP(rng, tc.act, in, 1+rng.Intn(10), 1)
				var norm *nn.Normalizer
				if rng.Intn(2) == 0 {
					norm = randNorm(rng, in)
				}
				p, err := New(net, norm)
				if err != nil {
					t.Fatal(err)
				}
				box := make([]interval.Interval, in)
				x := make([]float64, in)
				for k := range x {
					x[k] = rng.Float64()*10 - 5
					box[k] = interval.Point(x[k])
				}
				if norm != nil {
					norm.Apply(x)
				}
				y := net.Predict1(x)
				out := p.PredictInterval1(box, nil)
				if out.Lo != y || out.Hi != y {
					t.Fatalf("case %d: point box gives [%v, %v], Predict1 gives %v (act %s)",
						caseNo, out.Lo, out.Hi, y, tc.name)
				}
			}
		})
	}

	// Raw bounds one ulp apart that the normalizer maps to one point take
	// the point pass too, and still give Predict1 of that point.
	t.Run("one_ulp_normalized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		found := 0
		for caseNo := 0; caseNo < 200; caseNo++ {
			net := nn.NewMLP(rng, nn.Tanh{}, 3, 8, 1)
			// Means far from the inputs make the subtraction absorb the
			// one-ulp difference in most draws; wide scales keep the
			// normalized inputs in tanh's unsaturated range.
			norm := &nn.Normalizer{Mean: []float64{500, -1000, 2e3}, Std: []float64{170, 300, 1100}}
			p, err := New(net, norm)
			if err != nil {
				t.Fatal(err)
			}
			box := make([]interval.Interval, 3)
			x := make([]float64, 3)
			collapsed := true
			for k := range box {
				lo := rng.Float64()*10 - 5
				hi := math.Nextafter(lo, math.Inf(1))
				box[k] = interval.New(lo, hi)
				x[k] = lo
				collapsed = collapsed && (lo-norm.Mean[k])/norm.Std[k] == (hi-norm.Mean[k])/norm.Std[k]
			}
			if !collapsed {
				continue
			}
			found++
			norm.Apply(x)
			y := net.Predict1(x)
			if out := p.PredictInterval1(box, nil); out.Lo != y || out.Hi != y {
				t.Fatalf("case %d: one-ulp box gives [%v, %v], Predict1 gives %v", caseNo, out.Lo, out.Hi, y)
			}
		}
		if found == 0 {
			t.Fatal("no one-ulp box normalized to a point")
		}
	})

	// A deeper ReLU network with several outputs: the point pass runs the
	// dot kernel's four-wide and tail paths and must reproduce Predict.
	t.Run("relu_multi_output", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for caseNo := 0; caseNo < 100; caseNo++ {
			in := 1 + rng.Intn(6)
			net := nn.NewMLP(rng, nn.ReLU{}, in, 1+rng.Intn(13), 1+rng.Intn(9), 1+rng.Intn(7))
			p, err := New(net, randNorm(rng, in))
			if err != nil {
				t.Fatal(err)
			}
			box := make([]interval.Interval, in)
			x := make([]float64, in)
			for k := range x {
				x[k] = rng.Float64()*10 - 5
				box[k] = interval.Point(x[k])
			}
			(&nn.Normalizer{Mean: p.mean, Std: p.std}).Apply(x)
			want := net.Predict(x)
			got := p.PredictInterval(box)
			for j, y := range want {
				if got[j].Lo != y || got[j].Hi != y {
					t.Fatalf("case %d output %d: point box gives %v, Predict gives %v", caseNo, j, got[j], y)
				}
			}
		}
	})
}

// twoSidedReference is the propagation loop as it stood before the point
// pass: normalize each bound, then the sign-split accumulation on both
// lanes for every box.  It is kept here as the differential reference.
func twoSidedReference(p *Propagator, box []interval.Interval) []interval.Interval {
	curLo, curHi := make([]float64, len(box)), make([]float64, len(box))
	for k, iv := range box {
		if p.std != nil {
			curLo[k] = (iv.Lo - p.mean[k]) / p.std[k]
			curHi[k] = (iv.Hi - p.mean[k]) / p.std[k]
		} else {
			curLo[k], curHi[k] = iv.Lo, iv.Hi
		}
	}
	for _, l := range p.layers {
		outLo, outHi := make([]float64, l.out), make([]float64, l.out)
		for j := 0; j < l.out; j++ {
			wrow := l.w[j*l.in : (j+1)*l.in]
			var slo, shi float64
			for k, w := range wrow {
				if w >= 0 {
					slo += w * curLo[k]
					shi += w * curHi[k]
				} else {
					slo += w * curHi[k]
					shi += w * curLo[k]
				}
			}
			slo += l.b[j]
			shi += l.b[j]
			outLo[j] = l.act.Apply(slo)
			outHi[j] = l.act.Apply(shi)
		}
		curLo, curHi = outLo, outHi
	}
	out := make([]interval.Interval, len(curLo))
	for j := range out {
		out[j] = interval.Interval{Lo: curLo[j], Hi: curHi[j]}
	}
	return out
}

// TestIBPMatchesTwoSidedReference is the differential check: interval
// boxes, boxes with some point inputs, and full point boxes all give
// bitwise the output of the reference two-sided loop, for every
// activation, with and without a normalizer, at one and several outputs.
func TestIBPMatchesTwoSidedReference(t *testing.T) {
	for _, tc := range hiddenActs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			scr := &Scratch{}
			for caseNo := 0; caseNo < 300; caseNo++ {
				in := 1 + rng.Intn(6)
				sizes := []int{in, 1 + rng.Intn(12), 1 + rng.Intn(6)}
				if rng.Intn(2) == 0 {
					sizes = []int{in, 1 + rng.Intn(12), 1 + rng.Intn(9), 1}
				}
				net := nn.NewMLP(rng, tc.act, sizes...)
				var norm *nn.Normalizer
				if rng.Intn(2) == 0 {
					norm = randNorm(rng, in)
				}
				p, err := New(net, norm)
				if err != nil {
					t.Fatal(err)
				}
				box := randBox(rng, in)
				switch caseNo % 3 {
				case 1: // some inputs are points
					for k := range box {
						if rng.Intn(2) == 0 {
							box[k] = interval.Point(box[k].Lo)
						}
					}
				case 2: // a full point box
					for k := range box {
						box[k] = interval.Point(box[k].Hi)
					}
				}
				want := twoSidedReference(p, box)
				got := p.PredictIntervalInto(make([]interval.Interval, p.OutputDim()), box, scr)
				for j := range want {
					if math.Float64bits(got[j].Lo) != math.Float64bits(want[j].Lo) ||
						math.Float64bits(got[j].Hi) != math.Float64bits(want[j].Hi) {
						t.Fatalf("case %d output %d: got %v, reference %v (box %v)", caseNo, j, got[j], want[j], box)
					}
				}
			}
		})
	}
}

// TestIBPMonotoneWidth asserts the bound is monotone under box expansion:
// widening any input interval can only widen (never shift out of) the
// output interval.  The affine stages make this exact in float64; the
// activation slack is absorbed by containTol.
func TestIBPMonotoneWidth(t *testing.T) {
	for _, tc := range hiddenActs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for caseNo := 0; caseNo < 200; caseNo++ {
				in := 1 + rng.Intn(5)
				net := nn.NewMLP(rng, tc.act, in, 1+rng.Intn(10), 1)
				p, err := New(net, nil)
				if err != nil {
					t.Fatal(err)
				}
				box := randBox(rng, in)
				out := p.PredictInterval1(box, nil)
				wider := make([]interval.Interval, in)
				for k := range wider {
					wider[k] = box[k].Expand(rng.Float64())
				}
				wout := p.PredictInterval1(wider, nil)
				tol := tolFor(wout)
				if out.Lo < wout.Lo-tol || out.Hi > wout.Hi+tol {
					t.Fatalf("case %d: expansion shrank the bound: %v -> %v (act %s)",
						caseNo, out, wout, tc.name)
				}
				if wout.Width() < out.Width()-tol {
					t.Fatalf("case %d: width shrank under expansion: %v -> %v",
						caseNo, out.Width(), wout.Width())
				}
			}
		})
	}
}

// TestIBPRejectsNonMonotone pins the constructor's activation whitelist.
func TestIBPRejectsNonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(rng, nn.LeakyReLU{Alpha: -0.5}, 3, 4, 1)
	if _, err := New(net, nil); err == nil {
		t.Fatal("negative-alpha leaky ReLU accepted")
	}
}

// TestIBPRejectsBadNormalizer pins the Std > 0 and length validation.
func TestIBPRejectsBadNormalizer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP(rng, nn.Tanh{}, 3, 4, 1)
	for _, norm := range []*nn.Normalizer{
		{Mean: []float64{0, 0, 0}, Std: []float64{1, 0, 1}},
		{Mean: []float64{0, 0, 0}, Std: []float64{1, -1, 1}},
		{Mean: []float64{0, 0}, Std: []float64{1, 1}},
		{Mean: []float64{0, math.NaN(), 0}, Std: []float64{1, 1, 1}},
	} {
		if _, err := New(net, norm); err == nil {
			t.Fatalf("bad normalizer %+v accepted", norm)
		}
	}
}

// TestIBPSnapshot pins the snapshot semantics: training the source network
// after New must not move the propagator's bounds.
func TestIBPSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP(rng, nn.Tanh{}, 2, 4, 1)
	p, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	box := []interval.Interval{interval.New(-1, 1), interval.New(0, 2)}
	before := p.PredictInterval1(box, nil)
	for _, l := range net.Layers {
		l.B[0] += 10
	}
	after := p.PredictInterval1(box, nil)
	if before != after {
		t.Fatalf("propagator tracked post-snapshot mutation: %v -> %v", before, after)
	}
}

// TestIBPPanicsOnBadBox pins the caller contract: empty or non-finite
// inputs panic rather than silently poisoning the sums.
func TestIBPPanicsOnBadBox(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewMLP(rng, nn.Tanh{}, 2, 3, 1)
	p, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range [][]interval.Interval{
		{interval.New(0, 1)}, // wrong width
		{interval.New(0, 1), interval.Empty()},
		{interval.New(0, 1), {Lo: 0, Hi: math.Inf(1)}},
		{interval.New(0, 1), {Lo: math.NaN(), Hi: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("box %v did not panic", box)
				}
			}()
			p.PredictInterval1(box, nil)
		}()
	}
}

// TestIBPAllocs is the scratch-path budget wired into make alloc-gate: a
// propagation with a reused Scratch must not allocate at all.
func TestIBPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	rng := rand.New(rand.NewSource(5))
	net := nn.NewMLP(rng, nn.Tanh{}, 5, 16, 16, 1)
	p, err := New(net, randNorm(rng, 5))
	if err != nil {
		t.Fatal(err)
	}
	box := randBox(rng, 5)
	point := make([]interval.Interval, 5)
	for k := range point {
		point[k] = interval.Point(box[k].Mid())
	}
	scr := p.NewScratch()
	dst := make([]interval.Interval, 1)
	for _, tc := range []struct {
		name string
		box  []interval.Interval
	}{{"interval", box}, {"point", point}} {
		p.PredictIntervalInto(dst, tc.box, scr) // warm-up
		avg := testing.AllocsPerRun(100, func() {
			p.PredictIntervalInto(dst, tc.box, scr)
		})
		if avg != 0 {
			t.Errorf("PredictIntervalInto (%s box) allocates %.1f times with a warm Scratch (budget 0)", tc.name, avg)
		}
	}
}

// BenchmarkPredictInterval1 is the IBP bench row: the certified range's
// marginal cost over a point evaluation of the same network.
func BenchmarkPredictInterval1(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewMLP(rng, nn.Tanh{}, 5, 32, 32, 1)
	p, err := New(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	box := randBox(rng, 5)
	scr := p.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictInterval1(box, scr)
	}
}

// BenchmarkPredict1Baseline is the point-evaluation baseline for the row
// above.
func BenchmarkPredict1Baseline(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewMLP(rng, nn.Tanh{}, 5, 32, 32, 1)
	x := []float64{0.3, -1.2, 0.8, 2.1, -0.4}
	net.Predict1(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict1(x)
	}
}

// BenchmarkPredictInterval1Point is the point-box row: the certified
// range of a degenerate box, which takes the one-pass point path.
func BenchmarkPredictInterval1Point(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewMLP(rng, nn.Tanh{}, 5, 32, 32, 1)
	p, err := New(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	box := randBox(rng, 5)
	for k := range box {
		box[k] = interval.Point(box[k].Mid())
	}
	scr := p.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictInterval1(box, scr)
	}
}
