package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"safeplan/internal/mat"
)

func TestClipGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewMLP(rng, Tanh{}, 2, 4, 1)
	// Produce gradients with one backward pass.
	x := mat.NewDense(8, 2)
	y := mat.NewDense(8, 1)
	x.Randomize(rng, 3)
	y.Fill(10) // large targets → large gradients
	pred := n.ForwardBatch(x)
	dOut := mat.NewDense(8, 1)
	for i := 0; i < 8; i++ {
		dOut.Set(i, 0, 2*(pred.At(i, 0)-y.At(i, 0)))
	}
	d := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	pre := n.ClipGradients(0) // no-op returns the norm
	if pre <= 0 {
		t.Fatal("expected nonzero gradient norm")
	}
	clipTo := pre / 2
	if got := n.ClipGradients(clipTo); math.Abs(got-pre) > 1e-9 {
		t.Fatalf("pre-clip norm = %v, want %v", got, pre)
	}
	// After clipping the norm must equal clipTo.
	var sq float64
	for _, l := range n.Layers {
		for _, g := range l.GradW.Data() {
			sq += g * g
		}
		for _, g := range l.GradB {
			sq += g * g
		}
	}
	if got := math.Sqrt(sq); math.Abs(got-clipTo) > 1e-9*clipTo {
		t.Fatalf("post-clip norm = %v, want %v", got, clipTo)
	}
	// Clipping below the current norm again is idempotent-ish; clipping
	// above is a no-op.
	if n.ClipGradients(1e9); false {
		t.Fatal("unreachable")
	}
}

func TestLRSetters(t *testing.T) {
	s := &SGD{LR: 0.1}
	s.SetLR(0.05)
	if s.CurrentLR() != 0.05 {
		t.Fatal("SGD SetLR broken")
	}
	a := &Adam{LR: 0.01}
	a.SetLR(0.002)
	if a.CurrentLR() != 0.002 {
		t.Fatal("Adam SetLR broken")
	}
}

func TestFitAdvancedLearns(t *testing.T) {
	ds := makeQuadraticDataset(600, 21)
	n := NewMLP(rand.New(rand.NewSource(22)), Tanh{}, 2, 24, 1)
	res := n.FitAdvanced(ds, &Adam{LR: 0.01}, AdvancedTrainConfig{
		Epochs:    50,
		BatchSize: 64,
		Seed:      23,
		ClipNorm:  5,
		LRDecay:   0.98,
	})
	if res.TrainLoss > 0.01 {
		t.Fatalf("FitAdvanced final loss %v too high", res.TrainLoss)
	}
	if res.Epochs != 50 || res.StoppedEarly {
		t.Fatalf("unexpected early stop: %+v", res)
	}
	if !math.IsNaN(res.ValLoss) {
		t.Fatalf("no validation requested but ValLoss = %v", res.ValLoss)
	}
}

func TestFitAdvancedEarlyStops(t *testing.T) {
	// Pure-noise targets: validation loss cannot improve for long, so
	// patience must trigger.
	rng := rand.New(rand.NewSource(31))
	x := mat.NewDense(400, 2)
	y := mat.NewDense(400, 1)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	ds := &Dataset{X: x, Y: y}
	n := NewMLP(rand.New(rand.NewSource(32)), Tanh{}, 2, 16, 1)
	res := n.FitAdvanced(ds, &Adam{LR: 0.02}, AdvancedTrainConfig{
		Epochs:    200,
		BatchSize: 32,
		Seed:      33,
		ValFrac:   0.25,
		Patience:  5,
	})
	if !res.StoppedEarly {
		t.Fatalf("expected early stop on noise, ran %d epochs", res.Epochs)
	}
	if !res.RestoredBest {
		t.Fatal("best weights not restored")
	}
	if math.IsNaN(res.ValLoss) {
		t.Fatal("validation loss missing")
	}
}

func TestFitAdvancedRestoresBestWeights(t *testing.T) {
	// After restore, evaluating on the (deterministic) validation part of
	// the split must give ≤ the final-epoch value — spot-check by running
	// twice and confirming determinism of the result.
	run := func() FitResult {
		ds := makeQuadraticDataset(300, 41)
		n := NewMLP(rand.New(rand.NewSource(42)), Tanh{}, 2, 8, 1)
		return n.FitAdvanced(ds, &Adam{LR: 0.01}, AdvancedTrainConfig{
			Epochs: 40, BatchSize: 32, Seed: 43, ValFrac: 0.2, Patience: 100,
		})
	}
	a, b := run(), run()
	if a.ValLoss != b.ValLoss || a.TrainLoss != b.TrainLoss {
		t.Fatalf("FitAdvanced not deterministic: %+v vs %+v", a, b)
	}
	if a.ValLoss > 0.1 {
		t.Fatalf("validation loss %v too high", a.ValLoss)
	}
}

func TestFitAdvancedLRDecayApplied(t *testing.T) {
	ds := makeQuadraticDataset(100, 51)
	n := NewMLP(rand.New(rand.NewSource(52)), Tanh{}, 2, 4, 1)
	opt := &Adam{LR: 0.01}
	n.FitAdvanced(ds, opt, AdvancedTrainConfig{
		Epochs: 10, BatchSize: 32, Seed: 53, LRDecay: 0.5,
	})
	// 10 epochs of halving (decay applies after each epoch, incl. the last).
	want := 0.01 * math.Pow(0.5, 10)
	if math.Abs(opt.LR-want)/want > 1e-9 {
		t.Fatalf("decayed LR = %v, want %v", opt.LR, want)
	}
}

func TestFitAdvancedPanicsOnZeroEpochs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds := makeQuadraticDataset(10, 1)
	NewMLP(rand.New(rand.NewSource(1)), Tanh{}, 2, 2, 1).
		FitAdvanced(ds, &Adam{LR: 0.01}, AdvancedTrainConfig{})
}

// TestLazyGradientsTrainBitwise pins the lazy gradient buffers: a Clone
// and a model loaded from JSON carry no GradW/GradB until trained, and
// training either one gives bitwise the loss and weights of a copy whose
// buffers were allocated up front by NewMLP — with Adam, gradient
// clipping and SGD with momentum.
func TestLazyGradientsTrainBitwise(t *testing.T) {
	newEager := func() *Network { return NewMLP(rand.New(rand.NewSource(32)), Tanh{}, 2, 12, 8, 1) }
	src := newEager()
	clone := src.Clone()
	data, err := MarshalModel(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{clone, loaded} {
		for i, l := range n.Layers {
			if l.GradW != nil || l.GradB != nil {
				t.Fatalf("layer %d of an inference copy holds gradient buffers", i)
			}
		}
	}
	fit := func(n *Network) []float64 {
		ds := makeQuadraticDataset(200, 31) // fitting shuffles it in place
		res := n.FitAdvanced(ds, &Adam{LR: 0.01}, AdvancedTrainConfig{Epochs: 3, BatchSize: 32, Seed: 33, ClipNorm: 1})
		loss := n.Fit(ds, &SGD{LR: 0.01, Momentum: 0.9}, TrainConfig{Epochs: 2, BatchSize: 16, Seed: 34})
		return []float64{res.TrainLoss, loss}
	}
	wantNet := newEager()
	want := fit(wantNet)
	for name, n := range map[string]*Network{"clone": clone, "loaded": loaded} {
		got := fit(n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: loss %d = %v, eager copy %v", name, i, got[i], want[i])
			}
		}
		for i, l := range n.Layers {
			for k, w := range l.W.Data() {
				if math.Float64bits(w) != math.Float64bits(wantNet.Layers[i].W.Data()[k]) {
					t.Fatalf("%s: layer %d weight %d differs from the eager copy", name, i, k)
				}
			}
			for k, b := range l.B {
				if math.Float64bits(b) != math.Float64bits(wantNet.Layers[i].B[k]) {
					t.Fatalf("%s: layer %d bias %d differs from the eager copy", name, i, k)
				}
			}
		}
	}
}

// naivePredict evaluates a single-output network from W and B alone: each
// output sums x[k]·W[j][k] from +0 in k order, adds the bias and applies
// the activation (math.Tanh for tanh layers, which mat.TanhInto equals
// bit for bit).  It never reads Wᵀ, so it shows whether that copy is
// stale.
func naivePredict(n *Network, in []float64) float64 {
	x := in
	for _, l := range n.Layers {
		z := make([]float64, l.Out)
		for j := range z {
			var s float64
			for k, w := range l.W.Row(j) {
				s += x[k] * w
			}
			z[j] = l.Act.Apply(s + l.B[j])
		}
		x = z
	}
	return x[0]
}

// TestWTTracksW checks that every writer of W in this package rebuilds
// the Wᵀ copy the forward passes read: after NewMLP, Clone, a model round
// trip, each of several TrainBatch steps and FitAdvanced's early-stopping
// restore, Predict1 equals the matching ForwardBatch row and a naive
// forward pass from W, bit for bit.
func TestWTTracksW(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := mat.NewDense(9, 2)
	y := mat.NewDense(9, 1)
	x.Randomize(rng, 2)
	y.Randomize(rng, 1)
	check := func(stage string, n *Network) {
		t.Helper()
		batch := n.ForwardBatch(x)
		for i := 0; i < x.Rows(); i++ {
			got := n.Predict1(x.Row(i))
			if want := batch.At(i, 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, row %d: Predict1 %v, ForwardBatch %v", stage, i, got, want)
			}
			if want := naivePredict(n, x.Row(i)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, row %d: Predict1 %v, naive forward pass from W %v", stage, i, got, want)
			}
		}
	}
	n := NewMLP(rng, Tanh{}, 2, 35, 33, 1)
	for _, l := range n.Layers {
		for j := range l.B {
			l.B[j] = rng.NormFloat64()
		}
	}
	check("NewMLP", n)
	check("Clone", n.Clone())
	data, err := MarshalModel(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	check("UnmarshalModel", loaded)
	opt := &Adam{LR: 0.05}
	for step := 1; step <= 4; step++ {
		n.TrainBatch(x, y, opt)
		check(fmt.Sprintf("TrainBatch step %d", step), n)
	}
	ds := makeQuadraticDataset(300, 42)
	res := n.FitAdvanced(ds, &Adam{LR: 0.05}, AdvancedTrainConfig{
		Epochs: 200, BatchSize: 16, Seed: 43, ValFrac: 0.3, Patience: 2,
	})
	if !res.StoppedEarly || !res.RestoredBest {
		t.Fatalf("FitAdvanced stopped early %v, restored %v: the restore is not exercised", res.StoppedEarly, res.RestoredBest)
	}
	check("early-stopping restore", n)
}
