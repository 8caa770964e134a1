package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"safeplan/internal/mat"
)

// TestLazyGradientsTrainBitwise pins the lazy gradient buffers: a Clone
// and a model loaded from JSON carry no GradW/GradB until trained, and
// training either one gives bitwise the loss and weights of a copy whose
// buffers were allocated up front by NewMLP, over two Fit runs with
// fresh Adam state.
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
		first := n.Fit(ds, &Adam{LR: 0.01}, TrainConfig{Epochs: 3, BatchSize: 32, Seed: 33})
		second := n.Fit(ds, &Adam{LR: 0.005}, TrainConfig{Epochs: 2, BatchSize: 16, Seed: 34})
		return []float64{first, second}
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
// trip and each of several TrainBatch steps, Predict1 equals the matching
// ForwardBatch row and a naive forward pass from W, bit for bit.
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
}
