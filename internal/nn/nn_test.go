package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/mat"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		act        Activation
		x, fx, dfx float64
	}{
		{ReLU{}, 2, 2, 1},
		{ReLU{}, -2, 0, 0},
		{LeakyReLU{}, 2, 2, 1},
		{LeakyReLU{}, -2, -0.02, 0.01},
		{LeakyReLU{Alpha: 0.2}, -1, -0.2, 0.2},
		{Tanh{}, 0, 0, 1},
		{Sigmoid{}, 0, 0.5, 0.25},
		{Identity{}, 3.7, 3.7, 1},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(got-c.fx) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.act.Name(), c.x, got, c.fx)
		}
		if got := c.act.Derivative(c.x); math.Abs(got-c.dfx) > 1e-12 {
			t.Errorf("%s'(%v) = %v, want %v", c.act.Name(), c.x, got, c.dfx)
		}
	}
}

func TestActivationDerivativesNumerically(t *testing.T) {
	const h = 1e-6
	acts := []Activation{ReLU{}, LeakyReLU{}, Tanh{}, Sigmoid{}, Identity{}}
	for _, act := range acts {
		for _, x := range []float64{-2.3, -0.7, 0.4, 1.9} {
			num := (act.Apply(x+h) - act.Apply(x-h)) / (2 * h)
			if got := act.Derivative(x); math.Abs(got-num) > 1e-5 {
				t.Errorf("%s'(%v) = %v, numeric %v", act.Name(), x, got, num)
			}
		}
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"relu", "leaky_relu", "tanh", "sigmoid", "identity"} {
		act, ok := ActivationByName(name)
		if !ok || act.Name() != name {
			t.Errorf("ActivationByName(%q) failed", name)
		}
	}
	if _, ok := ActivationByName("softmax"); ok {
		t.Error("unknown name accepted")
	}
}

func TestNewMLPShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewMLP(rng, Tanh{}, 5, 16, 8, 1)
	if len(n.Layers) != 3 {
		t.Fatalf("layers = %d", len(n.Layers))
	}
	if n.InputDim() != 5 || n.OutputDim() != 1 {
		t.Fatalf("dims %d→%d", n.InputDim(), n.OutputDim())
	}
	if _, ok := n.Layers[2].Act.(Identity); !ok {
		t.Fatal("output layer must be linear")
	}
	want := 5*16 + 16 + 16*8 + 8 + 8*1 + 1
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestPredictShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewMLP(rng, ReLU{}, 3, 4, 2)
	x := mat.NewDense(1, 3)
	copy(x.Row(0), []float64{1, 2, 3})
	if out := n.ForwardBatch(x); out.Rows() != 1 || out.Cols() != 2 {
		t.Fatalf("ForwardBatch output shape = %d×%d", out.Rows(), out.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict1 on 2-output net should panic")
		}
	}()
	n.Predict1([]float64{1, 2, 3})
}

func TestPredictDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewMLP(rng, Tanh{}, 2, 8, 1)
	a := n.Predict1([]float64{0.3, -0.7})
	b := n.Predict1([]float64{0.3, -0.7})
	if a != b {
		t.Fatal("Predict not deterministic")
	}
}

// TestPredict1Allocs is the point-evaluation budget wired into make
// alloc-gate: Predict1 keeps its activations in stack arrays and must not
// allocate at all.
func TestPredict1Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	rng := rand.New(rand.NewSource(10))
	n := NewMLP(rng, Tanh{}, 5, 32, 32, 1)
	x := []float64{0.3, -1.2, 0.8, 2.1, -0.4}
	n.Predict1(x) // warm-up
	if avg := testing.AllocsPerRun(100, func() { n.Predict1(x) }); avg != 0 {
		t.Errorf("Predict1 allocates %.1f times on a warm network (budget 0)", avg)
	}
}

// TestForwardBatchMatchesPredict1 pins each row of a batch forward pass
// (Dense.Forward, which training runs) to Predict1's inference loop on
// that row, bit for bit: both run mat.VecMatInto on the layer's Wᵀ, bias
// included, and Dense.activate.  The hidden widths 32 and 35 take the
// kernel's vector blocks and its scalar tail; a layer wider than
// predictWidth takes Predict1's heap fallback; the biases are random, so
// the fused bias add is exercised.
func TestForwardBatchMatchesPredict1(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, c := range []struct {
		act   Activation
		sizes []int
	}{
		{Tanh{}, []int{5, 32, 32, 1}},
		{Tanh{}, []int{5, 35, 17, 1}},
		{ReLU{}, []int{7, 35, 1}},
		{Sigmoid{}, []int{6, 24, 8, 1}},
		{Tanh{}, []int{5, predictWidth + 6, 24, 1}},
	} {
		n := NewMLP(rng, c.act, c.sizes...)
		for _, l := range n.Layers {
			for j := range l.B {
				l.B[j] = rng.NormFloat64()
			}
		}
		x := mat.NewDense(37, c.sizes[0])
		x.Randomize(rng, 3)
		batch := n.ForwardBatch(x).Clone()
		for i := 0; i < x.Rows(); i++ {
			got, want := batch.At(i, 0), n.Predict1(x.Row(i))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v row %d: batch %v (%#x), Predict1 %v (%#x)",
					c.act.Name(), c.sizes, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// Numerical gradient check: the backprop gradients must match finite
// differences of the loss with respect to every parameter.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewMLP(rng, Tanh{}, 3, 5, 2)
	x := mat.NewDense(4, 3)
	y := mat.NewDense(4, 2)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)

	// Compute analytic gradients via one backward pass (no optimizer step).
	pred := n.ForwardBatch(x)
	rows, cols := pred.Rows(), pred.Cols()
	dOut := mat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dOut.Set(i, j, 2*(pred.At(i, j)-y.At(i, j))/float64(cols))
		}
	}
	d := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}

	loss := func() float64 { return MSE(n.ForwardBatch(x), y) }
	const h = 1e-6
	checked := 0
	for li, l := range n.Layers {
		wd := l.W.Data()
		gd := l.GradW.Data()
		for k := 0; k < len(wd); k += 3 { // sample every third weight
			orig := wd[k]
			wd[k] = orig + h
			l.syncWT()
			lp := loss()
			wd[k] = orig - h
			l.syncWT()
			lm := loss()
			wd[k] = orig
			l.syncWT()
			num := (lp - lm) / (2 * h)
			if math.Abs(num-gd[k]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d weight %d: analytic %v, numeric %v", li, k, gd[k], num)
			}
			checked++
		}
		for k := range l.B {
			orig := l.B[k]
			l.B[k] = orig + h
			lp := loss()
			l.B[k] = orig - h
			lm := loss()
			l.B[k] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-l.GradB[k]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d bias %d: analytic %v, numeric %v", li, k, l.GradB[k], num)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradient check exercised nothing")
	}
}

func makeQuadraticDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, 2)
	y := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a*a+0.5*b)
	}
	return &Dataset{X: x, Y: y}
}

func TestFitLearnsQuadratic(t *testing.T) {
	ds := makeQuadraticDataset(800, 1)
	rng := rand.New(rand.NewSource(2))
	n := NewMLP(rng, Tanh{}, 2, 24, 24, 1)
	before := MSE(n.ForwardBatch(ds.X), ds.Y)
	loss := n.Fit(ds, &Adam{LR: 0.01}, TrainConfig{Epochs: 60, BatchSize: 64, Seed: 5})
	if loss >= before {
		t.Fatalf("training did not reduce loss: %v → %v", before, loss)
	}
	if loss > 0.002 {
		t.Fatalf("final training loss %v too high", loss)
	}
	// Spot generalization.
	if got, want := n.Predict1([]float64{0.5, 0.5}), 0.5; math.Abs(got-want) > 0.1 {
		t.Fatalf("Predict(0.5,0.5) = %v, want ≈%v", got, want)
	}
}

func TestFitDeterministic(t *testing.T) {
	train := func() float64 {
		ds := makeQuadraticDataset(200, 7)
		n := NewMLP(rand.New(rand.NewSource(8)), Tanh{}, 2, 8, 1)
		return n.Fit(ds, &Adam{LR: 0.01}, TrainConfig{Epochs: 10, BatchSize: 32, Seed: 9})
	}
	if a, b := train(), train(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewMLP(rng, ReLU{}, 2, 4, 1)
	c := n.Clone()
	in := []float64{0.2, -0.4}
	if n.Predict1(in) != c.Predict1(in) {
		t.Fatal("clone predicts differently")
	}
	// Mutating the clone must not affect the original, in W or in the
	// Wᵀ that Predict1 reads.
	want := n.Predict1(in)
	c.Layers[0].W.Set(0, 0, 99)
	c.Layers[0].syncWT()
	if n.Layers[0].W.At(0, 0) == 99 {
		t.Fatal("clone shares weight storage")
	}
	if got := n.Predict1(in); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("original predicts %v after the clone's weight changed, want %v", got, want)
	}
	if c.Predict1(in) == want {
		t.Fatal("clone predicts as before after its weight changed")
	}
}

func TestDatasetShuffleKeepsPairs(t *testing.T) {
	x := mat.NewDense(50, 1)
	y := mat.NewDense(50, 1)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, float64(i))
		y.Set(i, 0, float64(i)*2)
	}
	ds := &Dataset{X: x, Y: y}
	ds.Shuffle(rand.New(rand.NewSource(11)))
	moved := false
	for i := 0; i < 50; i++ {
		if y.At(i, 0) != 2*x.At(i, 0) {
			t.Fatal("shuffle broke sample pairing")
		}
		if x.At(i, 0) != float64(i) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("shuffle did nothing")
	}
}

func TestNewDatasetMismatch(t *testing.T) {
	if _, err := NewDataset(mat.NewDense(3, 1), mat.NewDense(4, 1)); err == nil {
		t.Fatal("row mismatch accepted")
	}
}

func TestNormalizer(t *testing.T) {
	x := mat.NewDense(3, 2)
	for i, row := range [][]float64{{0, 100}, {10, 100}, {20, 100}} {
		copy(x.Row(i), row)
	}
	nm := FitNormalizer(x)
	if math.Abs(nm.Mean[0]-10) > 1e-12 {
		t.Fatalf("Mean[0] = %v", nm.Mean[0])
	}
	if nm.Std[1] != 1 {
		t.Fatalf("constant column Std = %v, want fallback 1", nm.Std[1])
	}
	s := []float64{10, 100}
	nm.Apply(s)
	if math.Abs(s[0]) > 1e-12 || math.Abs(s[1]) > 1e-12 {
		t.Fatalf("normalized mean sample = %v, want zeros", s)
	}
	// Matrix application normalizes columns to mean 0 / var 1.
	nm2 := FitNormalizer(x)
	nm2.ApplyMatrix(x)
	var mean0 float64
	for i := 0; i < 3; i++ {
		mean0 += x.At(i, 0)
	}
	if math.Abs(mean0) > 1e-9 {
		t.Fatalf("ApplyMatrix mean = %v", mean0/3)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := NewMLP(rng, Tanh{}, 3, 7, 2)
	norm := &Normalizer{Mean: []float64{1, 2, 3}, Std: []float64{4, 5, 6}}
	data, err := MarshalModel(n, norm)
	if err != nil {
		t.Fatal(err)
	}
	n2, norm2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	in := mat.NewDense(1, 3)
	copy(in.Row(0), []float64{0.1, -0.2, 0.3})
	a, b := n.ForwardBatch(in).Row(0), n2.ForwardBatch(in).Row(0)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("round-trip prediction differs: %v vs %v", a, b)
		}
	}
	if norm2 == nil || norm2.Mean[2] != 3 || norm2.Std[0] != 4 {
		t.Fatalf("normalizer round trip = %+v", norm2)
	}
}

func TestSerializeNilNormalizer(t *testing.T) {
	n := NewMLP(rand.New(rand.NewSource(14)), ReLU{}, 2, 3, 1)
	data, err := MarshalModel(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, norm, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if norm != nil {
		t.Fatal("nil normalizer became non-nil")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for name, data := range map[string]string{
		"not json":       "{",
		"wrong version":  `{"version": 99, "layers": [{"in":1,"out":1,"activation":"relu","w":[[1]],"b":[0]}]}`,
		"no layers":      `{"version": 1, "layers": []}`,
		"bad activation": `{"version": 1, "layers": [{"in":1,"out":1,"activation":"nope","w":[[1]],"b":[0]}]}`,
		"ragged weights": `{"version": 1, "layers": [{"in":2,"out":1,"activation":"relu","w":[[1]],"b":[0]}]}`,
		"chain mismatch": `{"version": 1, "layers": [{"in":1,"out":2,"activation":"relu","w":[[1],[1]],"b":[0,0]},{"in":3,"out":1,"activation":"identity","w":[[1,1,1]],"b":[0]}]}`,
		"zero outputs":   `{"version":1,"layers":[{"in":3,"out":0,"activation":"tanh","w":[],"b":[]}]}`,
		"zero inputs":    `{"version":1,"layers":[{"in":0,"out":1,"activation":"tanh","w":[[]],"b":[0]}]}`,
		"negative in":    `{"version":1,"layers":[{"in":-2,"out":1,"activation":"tanh","w":[[]],"b":[0]}]}`,
		"zero std":       `{"version":1,"layers":[{"in":1,"out":1,"activation":"identity","w":[[1]],"b":[0]}],"normalizer":{"mean":[0],"std":[0]}}`,
		"negative std":   `{"version":1,"layers":[{"in":1,"out":1,"activation":"identity","w":[[1]],"b":[0]}],"normalizer":{"mean":[0],"std":[-1]}}`,
		"infinite std":   `{"version":1,"layers":[{"in":1,"out":1,"activation":"identity","w":[[1]],"b":[0]}],"normalizer":{"mean":[0],"std":[1e999]}}`,
		"infinite mean":  `{"version":1,"layers":[{"in":1,"out":1,"activation":"identity","w":[[1]],"b":[0]}],"normalizer":{"mean":[-1e999],"std":[1]}}`,
	} {
		if _, _, err := UnmarshalModel([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: training on any small random dataset never produces NaN
// parameters with a sane learning rate.
func TestQuickTrainingStaysFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := mat.NewDense(32, 3)
		y := mat.NewDense(32, 1)
		x.Randomize(rng, 2)
		y.Randomize(rng, 2)
		ds := &Dataset{X: x, Y: y}
		n := NewMLP(rng, Tanh{}, 3, 8, 1)
		n.Fit(ds, &Adam{LR: 0.01}, TrainConfig{Epochs: 5, BatchSize: 8, Seed: seed})
		for _, l := range n.Layers {
			for _, w := range l.W.Data() {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
