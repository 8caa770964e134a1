package nn

import (
	"fmt"
	"math/rand"

	"safeplan/internal/mat"
)

// Network is a feed-forward multilayer perceptron for regression.
type Network struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes, e.g.
// NewMLP(rng, act, 5, 32, 32, 1) for a 5-input, 1-output net with two
// 32-unit hidden layers using act; the output layer is linear (Identity).
func NewMLP(rng *rand.Rand, hiddenAct Activation, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		act := hiddenAct
		if i == len(sizes)-2 {
			act = Identity{}
		}
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return n
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the output width.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// ForwardBatch runs a batch (rows are samples) through the network.
// The returned matrix is owned by the network and overwritten by the next
// call; clone it if it must persist.
func (n *Network) ForwardBatch(x *mat.Dense) *mat.Dense {
	out := x
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict evaluates the network on a single input vector through
// ForwardBatch.  It writes the layers' training caches and allocates a
// 1×n input matrix and the result slice on every call, so it is not safe
// for concurrent use and is not an inference path; planners call
// Predict1.  It stays because the ibp tests use it as their reference
// forward pass: it runs Dense.Forward, as training does, not Predict1's
// stack buffers.
func (n *Network) Predict(in []float64) []float64 {
	if len(in) != n.InputDim() {
		panic(fmt.Sprintf("nn: Predict expects %d inputs, got %d", n.InputDim(), len(in)))
	}
	x := mat.NewDense(1, len(in))
	copy(x.Row(0), in)
	out := n.ForwardBatch(x)
	res := make([]float64, out.Cols())
	copy(res, out.Row(0))
	return res
}

// predictWidth is the widest layer Predict1 evaluates in its stack
// buffers; a wider layer takes a per-call allocation instead.
const predictWidth = 64

// Predict1 evaluates a single-output network on one input vector.  It
// reads only the weights (each layer's Wᵀ and bias), keeping its
// activations on the stack, so it is safe for concurrent use and does not
// allocate for layers of at most predictWidth units.  It runs the kernel and activation of Dense.Forward,
// so it agrees bit for bit with ForwardBatch on the same row.
func (n *Network) Predict1(in []float64) float64 {
	if len(in) != n.InputDim() {
		panic(fmt.Sprintf("nn: Predict1 expects %d inputs, got %d", n.InputDim(), len(in)))
	}
	if n.OutputDim() != 1 {
		panic("nn: Predict1 on multi-output network")
	}
	var bufA, bufB [predictWidth]float64
	x, next, spare := in, bufA[:], bufB[:]
	for _, l := range n.Layers {
		var z []float64
		if l.Out <= predictWidth {
			z = next[:l.Out]
		} else {
			z = make([]float64, l.Out)
		}
		mat.VecMatInto(z, x, l.wt, l.B)
		l.activate(z, z)
		x, next, spare = z, spare, next
	}
	return x[0]
}

// MSE computes the mean-squared error of predictions pred against targets y
// (same shape), averaged over all entries.
func MSE(pred, y *mat.Dense) float64 {
	if pred.Rows() != y.Rows() || pred.Cols() != y.Cols() {
		panic("nn: MSE shape mismatch")
	}
	var s float64
	pd, yd := pred.Data(), y.Data()
	for i := range pd {
		d := pd[i] - yd[i]
		s += d * d
	}
	return s / float64(len(pd))
}

// TrainBatch performs one gradient step on the batch (x, y) under MSE loss
// using opt, and returns the pre-step loss.
func (n *Network) TrainBatch(x, y *mat.Dense, opt Optimizer) float64 {
	pred := n.ForwardBatch(x)
	loss := MSE(pred, y)
	// dL/dPred for MSE (mean over all N·K entries): 2(pred−y)/(N·K); the
	// per-layer batch averaging uses N, so scale by 2/K here.
	rows, cols := pred.Rows(), pred.Cols()
	dOut := mat.NewDense(rows, cols)
	scale := 2 / float64(cols)
	for i := 0; i < rows; i++ {
		pr, yr, dr := pred.Row(i), y.Row(i), dOut.Row(i)
		for j := 0; j < cols; j++ {
			dr[j] = scale * (pr[j] - yr[j])
		}
	}
	d := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	opt.Step(n)
	for _, l := range n.Layers {
		l.syncWT()
	}
	return loss
}

// Clone returns a deep copy of the network: weights only.  Forward caches
// start fresh, and the gradient buffers are allocated only if the copy
// is trained.  The copies share each layer's Wᵀ, which neither writes in
// place: training either one gives it a Wᵀ of its own.
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		nl := &Dense{
			In:  l.In,
			Out: l.Out,
			W:   l.W.Clone(),
			B:   append([]float64(nil), l.B...),
			Act: l.Act,
			wt:  l.wt, // never written in place; see Dense
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.In*l.Out + l.Out
	}
	return total
}

// params collects every (parameter, gradient) pair in a stable order.
func (n *Network) params() []param {
	var ps []param
	for _, l := range n.Layers {
		ps = append(ps, l.params()...)
	}
	return ps
}
