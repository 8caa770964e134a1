package ibp

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
)

// monotoneTol is the slack TestIBPMonotoneWidth allows between the bounds
// of a box and of a wider box: their centres round differently, so the
// wider box's bound may sit a few ulps inside the narrower one's.
const monotoneTol = 1e-9

func tolFor(iv interval.Interval) float64 {
	m := math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi))
	return monotoneTol * math.Max(1, m)
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

// predictIn evaluates net the way a planner does: normalize x (when norm
// is set), then run the forward pass, here ForwardBatch on a one-row
// batch, which Predict1 equals bit for bit on a single-output network.
func predictIn(net *nn.Network, norm *nn.Normalizer, x []float64) []float64 {
	xn := mat.NewDense(1, len(x))
	copy(xn.Row(0), x)
	if norm != nil {
		norm.Apply(xn.Row(0))
	}
	return append([]float64(nil), net.ForwardBatch(xn).Row(0)...)
}

// predict1 certifies box through a single-output propagator.
func predict1(p *Propagator, box []interval.Interval, scr *Scratch) interval.Interval {
	var out [1]interval.Interval
	return p.PredictIntervalInto(out[:], box, scr)[0]
}

// checkContains fails unless every output of the forward pass lies in
// out, with no tolerance.
func checkContains(t *testing.T, what string, out []interval.Interval, y []float64) {
	t.Helper()
	for j, v := range y {
		if !(v >= out[j].Lo && v <= out[j].Hi) {
			t.Fatalf("%s: output %d: forward pass = %v escapes certified %v", what, j, v, out[j])
		}
	}
}

// TestIBPContainment is the core soundness property: for ~200 random
// networks per activation, the forward pass at x lies inside the
// certified range of box for dozens of sampled x ∈ box (thousands of
// point checks per activation), with no tolerance.
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
				out := predict1(p, box, nil)
				if out.IsEmpty() || math.IsNaN(out.Lo) || math.IsNaN(out.Hi) {
					t.Fatalf("case %d: bad output interval %v", caseNo, out)
				}
				x := make([]float64, in)
				for s := 0; s < 25; s++ {
					for k := range x {
						x[k] = box[k].Lo + rng.Float64()*(box[k].Hi-box[k].Lo)
						if s == 0 {
							x[k] = box[k].Lo // a corner, where the bounds are tight
						}
					}
					checkContains(t, tc.name, []interval.Interval{out}, predictIn(net, norm, x))
				}
			}
		})
	}
}

// twoSidedLayers is the sign-split propagation IBP ran before the
// mid-radius form: normalize each bound, then on two lanes accumulate
// w·lo or w·hi by the sign of w, in Predict1's order, and apply the
// activation to each lane.  Each lane is a float evaluation at a corner
// of the layer's input box, so the result is the interval image up to
// rounding.  It reads the weights of the source network net, not p's
// snapshot, and p only for the normalizer.  It returns every layer's
// input box, the normalized input first and the output box last.
func twoSidedLayers(net *nn.Network, p *Propagator, box []interval.Interval) [][]interval.Interval {
	cur := make([]interval.Interval, len(box))
	for k, iv := range box {
		cur[k] = iv
		if p.std != nil {
			cur[k] = interval.Interval{Lo: (iv.Lo - p.mean[k]) / p.std[k], Hi: (iv.Hi - p.mean[k]) / p.std[k]}
		}
	}
	boxes := [][]interval.Interval{cur}
	for _, l := range net.Layers {
		out := make([]interval.Interval, l.Out)
		for j := range out {
			var slo, shi float64
			for k, w := range l.W.Row(j) {
				if w >= 0 {
					slo += w * cur[k].Lo
					shi += w * cur[k].Hi
				} else {
					slo += w * cur[k].Hi
					shi += w * cur[k].Lo
				}
			}
			out[j] = interval.Interval{Lo: l.Act.Apply(slo + l.B[j]), Hi: l.Act.Apply(shi + l.B[j])}
		}
		cur = out
		boxes = append(boxes, cur)
	}
	return boxes
}

// twoSidedReference returns the reference output box.
func twoSidedReference(net *nn.Network, p *Propagator, box []interval.Interval) []interval.Interval {
	boxes := twoSidedLayers(net, p, box)
	return boxes[len(boxes)-1]
}

// excessBound is the stated bound on how far PredictIntervalInto's output
// may reach beyond the reference's, on either side.  Per layer the excess
// e grows to Σ|w|·e plus the margin on both the propagation and the
// reference's rounding, then passes through the activation: tanh adds its
// enclosure (at most 2·tanhSlack), sigmoid is 1/4-Lipschitz plus its
// nudge, and the exact activations are 1-Lipschitz.  A point box's
// reference has zero width, so for it this bounds half the width.
func excessBound(net *nn.Network, p *Propagator, box []interval.Interval) float64 {
	ins := twoSidedLayers(net, p, box)
	var e float64
	for i, l := range p.layers {
		var m float64
		for _, iv := range ins[i] {
			m = max(m, math.Abs(iv.Lo), math.Abs(iv.Hi))
		}
		m += e
		rho := l.rowsumMax*e + 4*l.kappa*(l.rowsumMax*m+l.bMax) + 4*marginFloor
		switch l.kind {
		case actTanh:
			e = rho + 2*tanhSlack
		case actSigmoid:
			e = rho/4 + 4*sigmoidNudge + sigmoidFloor
		default:
			e = rho
		}
	}
	return e
}

// checkExcess fails unless got contains want and reaches beyond it by at
// most bound on each side.
func checkExcess(t *testing.T, what string, got, want []interval.Interval, bound float64) {
	t.Helper()
	for j := range want {
		if !(got[j].Lo <= want[j].Lo && got[j].Hi >= want[j].Hi) {
			t.Fatalf("%s: output %d: %v does not contain the reference %v", what, j, got[j], want[j])
		}
		if ex := max(want[j].Lo-got[j].Lo, got[j].Hi-want[j].Hi); ex > bound {
			t.Fatalf("%s: output %d: %v exceeds the reference %v by %g, bound %g", what, j, got[j], want[j], ex, bound)
		}
	}
}

// TestIBPPointBoxExact pins the point-box contract: a degenerate box
// contains the exact Predict1 value, with no tolerance, and is at most
// 2·excessBound wide.  (It does not equal Predict1 bitwise: the tanh
// and sigmoid bounds are outward enclosures, not math.Tanh/math.Exp.)
func TestIBPPointBoxExact(t *testing.T) {
	for _, tc := range hiddenActs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for caseNo := 0; caseNo < 200; caseNo++ {
				in := 1 + rng.Intn(5)
				sizes := []int{in, 1 + rng.Intn(10), 1}
				if caseNo%2 == 1 {
					sizes = []int{in, 1 + rng.Intn(10), 1 + rng.Intn(10), 1}
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
				box := make([]interval.Interval, in)
				x := make([]float64, in)
				for k := range x {
					x[k] = rng.Float64()*10 - 5
					box[k] = interval.Point(x[k])
				}
				out := p.PredictIntervalInto(make([]interval.Interval, p.OutputDim()), box, nil)
				checkContains(t, tc.name, out, predictIn(net, norm, x))
				if w, bound := out[0].Width(), 2*excessBound(net, p, box); w > bound {
					t.Fatalf("case %d: point box %v is %g wide, bound %g", caseNo, out[0], w, bound)
				}
			}
		})
	}

	// Raw bounds one ulp apart that the normalizer maps to one point take
	// the point path too, and still contain Predict1 of that point.
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
			out := p.PredictIntervalInto(make([]interval.Interval, p.OutputDim()), box, nil)
			checkContains(t, "one-ulp box", out, predictIn(net, norm, x))
			if w, bound := out[0].Width(), 2*excessBound(net, p, box); w > bound {
				t.Fatalf("case %d: one-ulp box %v is %g wide, bound %g", caseNo, out[0], w, bound)
			}
		}
		if found == 0 {
			t.Fatal("no one-ulp box normalized to a point")
		}
	})

	// A deeper ReLU network with several outputs: the centre pass runs the
	// dot kernel's four-wide and tail paths, and every output holds
	// the forward pass's.
	t.Run("relu_multi_output", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for caseNo := 0; caseNo < 100; caseNo++ {
			in := 1 + rng.Intn(6)
			net := nn.NewMLP(rng, nn.ReLU{}, in, 1+rng.Intn(13), 1+rng.Intn(9), 1+rng.Intn(7))
			norm := randNorm(rng, in)
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
			got := p.PredictIntervalInto(make([]interval.Interval, p.OutputDim()), box, nil)
			checkContains(t, "relu multi-output", got, predictIn(net, norm, x))
			bound := 2 * excessBound(net, p, box)
			for j := range got {
				if w := got[j].Width(); w > bound {
					t.Fatalf("case %d output %d: point box %v is %g wide, bound %g", caseNo, j, got[j], w, bound)
				}
			}
		}
	})
}

// TestIBPMatchesTwoSidedReference is the differential check: interval
// boxes, boxes with some point inputs, and full point boxes all give a
// superset of the reference two-sided loop's output that reaches beyond
// it by at most excessBound, for every activation, with and without a
// normalizer, at one and several outputs.
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
				got := p.PredictIntervalInto(make([]interval.Interval, p.OutputDim()), box, scr)
				checkExcess(t, tc.name, got, twoSidedReference(net, p, box), excessBound(net, p, box))
			}
		})
	}
}

// tanhBounds runs the tanh enclosure loop of layer.activate on xs: lo and
// hi receive its lower and upper bounds at every x.
func tanhBounds(xs, lo, hi []float64) {
	copy(lo, xs)
	copy(hi, xs)
	(&layer{kind: actTanh}).activate(lo, hi)
}

// TestTanhEnclosure pins the activation enclosure IBP's tanh layers rest
// on: lo ≤ math.Tanh(x) ≤ hi, with hi − lo ≤ 2·tanhSlack, at every table
// cell end and its float neighbours, at ±0, in saturation (|x| ≥ 20),
// and at 10⁷ random points — a third of them in [13, 20], where the
// chord is within an ulp of tanh and only tanhRound keeps the chord's
// side sound.
func TestTanhEnclosure(t *testing.T) {
	var xs []float64
	for i := 0; i <= tanhCells+1; i++ {
		e := float64(i) / tanhCellsPerUnit
		xs = append(xs, e, math.Nextafter(e, -1), math.Nextafter(e, 30))
	}
	xs = append(xs, 0, math.Copysign(0, -1), 20, 20.5, 25, 100, 1e10, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-300, 1e-8)
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	rng := rand.New(rand.NewSource(16))
	const batch = 4096
	lo, hi := make([]float64, batch), make([]float64, batch)
	check := func(xs []float64) {
		tanhBounds(xs, lo, hi)
		for i, x := range xs {
			y := math.Tanh(x)
			if !(lo[i] <= y && y <= hi[i]) {
				t.Fatalf("tanh(%v) = %v escapes [%v, %v]", x, y, lo[i], hi[i])
			}
			if hi[i]-lo[i] > 2*tanhSlack {
				t.Fatalf("tanh(%v): enclosure [%v, %v] wider than 2·tanhSlack", x, lo[i], hi[i])
			}
		}
	}
	for len(xs) > 0 {
		n := min(batch, len(xs))
		check(xs[:n])
		xs = xs[n:]
	}
	buf := make([]float64, batch)
	for done := 0; done < draws; done += batch {
		for i := range buf {
			switch i % 3 {
			case 0:
				buf[i] = rng.Float64()*42 - 21
			case 1:
				buf[i] = math.Copysign(13+rng.Float64()*7, rng.Float64()-0.5)
			default:
				buf[i] = math.Copysign(math.Exp(-rng.Float64()*20), rng.Float64()-0.5)
			}
		}
		check(buf)
	}
}

// TestIBPOverflowWholeLine pins the overflow guard: a box large enough
// that a pre-activation could overflow certifies the whole line instead
// of returning Inf − Inf = NaN bounds.
func TestIBPOverflowWholeLine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := nn.NewMLP(rng, nn.ReLU{}, 2, 4, 1)
	p, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range [][]interval.Interval{
		{interval.New(-math.MaxFloat64, math.MaxFloat64), interval.Point(0)},
		{interval.Point(1e308), interval.Point(-1e308)},
	} {
		out := predict1(p, box, nil)
		if !math.IsInf(out.Lo, -1) || !math.IsInf(out.Hi, 1) {
			t.Fatalf("box %v: got %v, want the whole line", box, out)
		}
	}
}

// loadShipped reads a committed planner model from the repository's
// models directory.
func loadShipped(tb testing.TB, name string) (*nn.Network, *nn.Normalizer) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "models", name))
	if err != nil {
		tb.Fatal(err)
	}
	net, norm, err := nn.UnmarshalModel(data)
	if err != nil {
		tb.Fatal(err)
	}
	return net, norm
}

// featureBoxes draws n left-turn planner feature boxes the way verified
// mode builds them: leftturn.FeatureBoxInto over random sound estimates
// that straddle the conflict zone, with the point features of the sound
// estimate's own window beside each box.
func featureBoxes(rng *rand.Rand, n int, aggressive bool) (boxes [][]interval.Interval, points [][]float64) {
	sc := leftturn.DefaultConfig()
	for i := 0; i < n; i++ {
		pc := rng.Float64()*160 - 120
		vc := rng.Float64() * 22
		sound := leftturn.OncomingEstimate{
			P: interval.New(pc, pc+rng.Float64()*40),
			V: interval.New(math.Max(0, vc-rng.Float64()*6), vc),
			A: rng.Float64()*6 - 3,
		}
		sound.PointP, sound.PointV = sound.P.Mid(), sound.V.Mid()
		ego := dynamics.State{P: rng.Float64()*40 - 30, V: rng.Float64() * 15}
		tm := rng.Float64() * 20
		box := make([]interval.Interval, leftturn.FeatureCount)
		sc.FeatureBoxInto(box, tm, ego, sound, aggressive)
		win := sc.ConservativeWindow(sound)
		if aggressive {
			win = sc.AggressiveWindow(sound)
		}
		boxes = append(boxes, box)
		points = append(points, leftturn.Features(tm, ego, win))
	}
	return boxes, points
}

// TestIBPShippedModels pins the widening on the planners verified mode
// certifies: over left-turn feature boxes, the committed nn-cons and
// nn-aggr models' certified range contains the two-sided reference and is
// at most 2e-3 wider, point boxes are at most 2e-3 wide, and both
// contain Predict1 at the sound estimate's own features.
func TestIBPShippedModels(t *testing.T) {
	const maxWidening = 2e-3
	for _, name := range []string{"nn-cons.json", "nn-aggr.json"} {
		net, norm := loadShipped(t, name)
		p, err := New(net, norm)
		if err != nil {
			t.Fatal(err)
		}
		scr := p.NewScratch()
		var worst, worstPoint float64
		for _, aggressive := range []bool{false, true} {
			boxes, points := featureBoxes(rand.New(rand.NewSource(18)), 1000, aggressive)
			for i, box := range boxes {
				got := predict1(p, box, scr)
				want := twoSidedReference(net, p, box)[0]
				checkExcess(t, name, []interval.Interval{got}, []interval.Interval{want}, maxWidening/2)
				worst = max(worst, got.Width()-want.Width())
				y := predictIn(net, norm, points[i])
				checkContains(t, name, []interval.Interval{got}, y)

				point := make([]interval.Interval, len(box))
				for k, v := range points[i] {
					point[k] = interval.Point(v)
				}
				pout := predict1(p, point, scr)
				checkContains(t, name+" point", []interval.Interval{pout}, y)
				if pout.Width() > maxWidening {
					t.Fatalf("%s: point box %v is %g wide, bound %g", name, pout, pout.Width(), maxWidening)
				}
				worstPoint = max(worstPoint, pout.Width())
			}
		}
		t.Logf("%s: widest widening %.3g over the reference, widest point box %.3g", name, worst, worstPoint)
	}
}

// TestIBPMonotoneWidth asserts the bound is monotone under box expansion:
// widening any input interval can only widen (never shift out of) the
// output interval.  The affine stages make this exact in float64; the
// rounding slack is absorbed by monotoneTol.
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
				out := predict1(p, box, nil)
				wider := make([]interval.Interval, in)
				for k := range wider {
					wider[k] = box[k].Expand(rng.Float64())
				}
				wout := predict1(p, wider, nil)
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

// TestIBPSnapshot pins the snapshot semantics: changing the source
// network's biases after New, or training it (which replaces the Wᵀ the
// propagator keeps), must not move the propagator's bounds.
func TestIBPSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP(rng, nn.Tanh{}, 2, 4, 1)
	p, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	box := []interval.Interval{interval.New(-1, 1), interval.New(0, 2)}
	before := predict1(p, box, nil)
	for _, l := range net.Layers {
		l.B[0] += 10
	}
	x, y := mat.NewDense(8, 2), mat.NewDense(8, 1)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	for i := 0; i < 3; i++ {
		net.TrainBatch(x, y, &nn.Adam{LR: 0.5})
	}
	after := predict1(p, box, nil)
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
		{interval.New(0, 1), {Lo: 0, Hi: math.NaN()}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("box %v did not panic", box)
				}
			}()
			predict1(p, box, nil)
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
	dst := make([]interval.Interval, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictIntervalInto(dst, box, scr)
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
// range of a degenerate box, which skips the radius pass and takes one
// chord per tanh unit.
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
	dst := make([]interval.Interval, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictIntervalInto(dst, box, scr)
	}
}

// benchSink keeps the benchmarked call's result live.
var benchSink interval.Interval

// BenchmarkPredictInterval1Model is the shipped-planner row: the
// certified range of models/nn-cons.json over 512 left-turn feature boxes
// (interval) and over their point features (point), the two kinds of box
// verified mode propagates.
func BenchmarkPredictInterval1Model(b *testing.B) {
	net, norm := loadShipped(b, "nn-cons.json")
	p, err := New(net, norm)
	if err != nil {
		b.Fatal(err)
	}
	boxes, points := featureBoxes(rand.New(rand.NewSource(19)), 512, false)
	pointBoxes := make([][]interval.Interval, len(points))
	for i, x := range points {
		for _, v := range x {
			pointBoxes[i] = append(pointBoxes[i], interval.Point(v))
		}
	}
	for _, bc := range []struct {
		name  string
		boxes [][]interval.Interval
	}{{"interval", boxes}, {"point", pointBoxes}} {
		b.Run(bc.name, func(b *testing.B) {
			scr := p.NewScratch()
			dst := make([]interval.Interval, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = p.PredictIntervalInto(dst, bc.boxes[i%len(bc.boxes)], scr)[0]
			}
		})
	}
}
