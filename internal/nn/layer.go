package nn

import (
	"fmt"
	"math"
	"math/rand"

	"safeplan/internal/mat"
)

// Dense is a fully connected layer: y = act(x·Wᵀ + b) with W of shape
// (out × in) and b of length out.
//
// W is the layer's weights for the model file and the gradients.  The
// forward passes read wt, a row-major in × out copy of Wᵀ, which every
// writer of W in this package rebuilds (syncWT): NewDense, UnmarshalModel
// and TrainBatch after the optimizer step.  Code in this package that
// writes W must call syncWT before the next forward pass; code outside it
// only reads W.  A built wt is never written again, so Clone shares it
// with its copy and ibp.New with its propagator.
type Dense struct {
	In, Out int
	W       *mat.Dense // out × in
	B       []float64  // out
	Act     Activation

	wt []float64 // Wᵀ, in × out, row-major

	// Forward caches (batch mode), reused by Backward; training only.
	x    *mat.Dense // input (n × in)
	z    *mat.Dense // pre-activation (n × out)
	aOut *mat.Dense // activation output (n × out)

	// Gradients accumulated by Backward.  Inference copies (Clone,
	// UnmarshalModel) start without them; Backward and the optimizers
	// allocate them on first use.
	GradW *mat.Dense
	GradB []float64
}

// ensureGrads allocates the gradient buffers of a layer that has none.
func (l *Dense) ensureGrads() {
	if l.GradW == nil {
		l.GradW = mat.NewDense(l.Out, l.In)
		l.GradB = make([]float64, l.Out)
	}
}

// NewDense constructs a layer with Glorot-uniform initialized weights and
// zero biases, drawing from rng for determinism.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid layer shape %d→%d", in, out))
	}
	if act == nil {
		panic("nn: nil activation")
	}
	l := &Dense{
		In:    in,
		Out:   out,
		W:     mat.NewDense(out, in),
		B:     make([]float64, out),
		Act:   act,
		GradW: mat.NewDense(out, in),
		GradB: make([]float64, out),
	}
	scale := math.Sqrt(6.0 / float64(in+out))
	l.W.Randomize(rng, scale)
	l.syncWT()
	return l
}

// syncWT rebuilds wt from W into a fresh slice, never into the old one,
// which a clone or a propagator may share.
func (l *Dense) syncWT() {
	wt := make([]float64, l.In*l.Out)
	for j := 0; j < l.Out; j++ {
		for k, w := range l.W.Row(j) {
			wt[k*l.Out+j] = w
		}
	}
	l.wt = wt
}

// WT returns the layer's Wᵀ, the row-major in × out copy of W that the
// forward passes read.  It is never written after it is built (a change
// to W gets a new copy), so a caller may keep it as a snapshot of the
// current weights, but must not modify it.
func (l *Dense) WT() []float64 { return l.wt }

// Forward computes the layer output for a batch x (n × in), caching the
// values Backward needs.
func (l *Dense) Forward(x *mat.Dense) *mat.Dense {
	n := x.Rows()
	if x.Cols() != l.In {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.In, x.Cols()))
	}
	l.x = x
	if l.z == nil || l.z.Rows() != n {
		l.z = mat.NewDense(n, l.Out)
		l.aOut = mat.NewDense(n, l.Out)
	}
	// z = x·Wᵀ + b, one row at a time: a batch and Predict1's single
	// sample take the same kernel, which adds the bias as it stores.
	for i := 0; i < n; i++ {
		mat.VecMatInto(l.z.Row(i), x.Row(i), l.wt, l.B)
	}
	l.activate(l.aOut.Data(), l.z.Data())
	return l.aOut
}

// activate writes act(z) into a, which may alias z.  Tanh layers take the
// vector kernel, bitwise math.Tanh; the others apply their activation
// unit by unit.
func (l *Dense) activate(a, z []float64) {
	if _, ok := l.Act.(Tanh); ok {
		mat.TanhInto(a, z)
		return
	}
	for j, v := range z {
		a[j] = l.Act.Apply(v)
	}
}

// Backward consumes dL/dOut (n × out) and returns dL/dIn (n × in),
// accumulating dL/dW and dL/dB (averaged over the batch) into GradW/GradB.
func (l *Dense) Backward(dOut *mat.Dense) *mat.Dense {
	n := dOut.Rows()
	if l.x == nil || n != l.x.Rows() || dOut.Cols() != l.Out {
		panic("nn: Backward without matching Forward")
	}
	l.ensureGrads()
	// dZ = dOut ⊙ act'(z), computed in place on a scratch copy.
	dZ := mat.NewDense(n, l.Out)
	for i := 0; i < n; i++ {
		zr := l.z.Row(i)
		dr := dOut.Row(i)
		dzr := dZ.Row(i)
		for j := 0; j < l.Out; j++ {
			dzr[j] = dr[j] * l.Act.Derivative(zr[j])
		}
	}
	// GradW = dZᵀ·x / n ; GradB = column-mean of dZ.
	mat.MulTransInto(l.GradW, dZ, l.x)
	l.GradW.ScaleInPlace(1 / float64(n))
	for j := 0; j < l.Out; j++ {
		l.GradB[j] = 0
	}
	for i := 0; i < n; i++ {
		dzr := dZ.Row(i)
		for j := 0; j < l.Out; j++ {
			l.GradB[j] += dzr[j]
		}
	}
	for j := 0; j < l.Out; j++ {
		l.GradB[j] /= float64(n)
	}
	// dIn = dZ·W.
	dIn := mat.NewDense(n, l.In)
	mat.MulInto(dIn, dZ, l.W)
	return dIn
}

// Params returns the parameter and gradient tensors in a stable order,
// flattening biases into 1×out matrices for the optimizer.
func (l *Dense) params() []param {
	l.ensureGrads()
	return []param{
		{w: l.W.Data(), g: l.GradW.Data()},
		{w: l.B, g: l.GradB},
	}
}

// param pairs a parameter vector with its gradient.
type param struct {
	w, g []float64
}
