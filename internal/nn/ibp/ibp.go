// Package ibp implements interval bound propagation (IBP) through the
// repository's feed-forward networks: given a box of input intervals it
// produces an output box guaranteed to contain Predict(x) for every x in
// the input box (up to floating-point rounding — see the soundness note).
//
// The construction is the classical sign-split affine transform.  For a
// dense layer y = act(x·Wᵀ + b), each pre-activation bound accumulates
// w·lo for nonnegative weights and w·hi for negative ones (and vice versa
// for the upper bound), in exactly the same k-ascending order as
// mat.MulBTransInto with the bias added afterwards — so for a degenerate
// point box both bounds reproduce Network.Predict1 bit for bit.  A box
// whose normalized bounds all coincide skips the two lanes: it takes one
// pass per layer through mat.DotRowsInto, the dot kernel behind
// MulBTransInto and so behind Predict1, which computes the same value
// once (see predictPointInto).  Every
// activation in this repository (ReLU, LeakyReLU with α ≥ 0, Tanh,
// Sigmoid, Identity) is monotone nondecreasing, so its exact interval
// image is [f(lo), f(hi)]; New rejects anything else.  The optional input
// normalizer is a monotone affine map (Std > 0, validated) and lifts the
// same way.
//
// Soundness note: in exact real arithmetic the output box is a superset
// of the network's image of the input box.  In float64 the accumulations
// round to nearest (no directed rounding), so a point evaluation can
// escape the bound by a few ulps; runtime consumers absorb this with a
// small tolerance (sim.CertifyConfig.Tol), and the property/fuzz suites
// pin the slack at 1e-9 relative.  See DESIGN.md §15 for the full
// argument.
//
// A Propagator is immutable after New (weights are snapshotted, so later
// training of the source network is not reflected) and safe for
// concurrent use; per-call state lives in a caller-supplied Scratch.
package ibp

import (
	"fmt"
	"math"

	"safeplan/internal/interval"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
)

// layer is an immutable snapshot of one dense layer.
type layer struct {
	in, out int
	w       []float64 // out × in, row-major (same layout as mat.Dense)
	b       []float64
	act     nn.Activation
}

// Propagator propagates interval boxes through a network snapshot.
type Propagator struct {
	layers []layer
	mean   []float64 // input normalizer, nil when absent
	std    []float64

	inDim, outDim int
	maxWidth      int // widest layer, sizing the ping-pong buffers
}

// Scratch holds the propagation ping-pong buffers.  A zero Scratch is
// ready to use and grows on first call; reusing one across calls keeps the
// steady state allocation-free.  A Scratch must not be shared between
// concurrent propagations.
type Scratch struct {
	lo, hi, lo2, hi2 []float64
}

// grow ensures every buffer holds at least n values.
func (s *Scratch) grow(n int) {
	if cap(s.lo) < n {
		s.lo = make([]float64, n)
		s.hi = make([]float64, n)
		s.lo2 = make([]float64, n)
		s.hi2 = make([]float64, n)
	}
	s.lo, s.hi = s.lo[:cap(s.lo)], s.hi[:cap(s.hi)]
	s.lo2, s.hi2 = s.lo2[:cap(s.lo2)], s.hi2[:cap(s.hi2)]
}

// monotone reports whether act's interval image is exactly [f(lo), f(hi)].
func monotone(act nn.Activation) error {
	switch a := act.(type) {
	case nn.ReLU, nn.Tanh, nn.Sigmoid, nn.Identity:
		return nil
	case nn.LeakyReLU:
		if a.Alpha < 0 {
			return fmt.Errorf("ibp: leaky_relu with negative alpha %v is not monotone", a.Alpha)
		}
		return nil
	}
	return fmt.Errorf("ibp: activation %q is not known to be monotone", act.Name())
}

// New snapshots net (and the optional input normalizer norm) into a
// Propagator.  It fails when any activation is not provably monotone, any
// parameter is non-finite, or the normalizer is malformed (length mismatch
// or a scale that is not strictly positive).  The snapshot is deep: later
// training steps on net do not change the propagator.
func New(net *nn.Network, norm *nn.Normalizer) (*Propagator, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("ibp: nil or empty network")
	}
	p := &Propagator{inDim: net.InputDim(), outDim: net.OutputDim()}
	p.maxWidth = p.inDim
	for i, l := range net.Layers {
		if err := monotone(l.Act); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		w := make([]float64, l.In*l.Out)
		copy(w, l.W.Data())
		b := make([]float64, l.Out)
		copy(b, l.B)
		for _, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ibp: layer %d has a non-finite weight", i)
			}
		}
		for _, v := range b {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ibp: layer %d has a non-finite bias", i)
			}
		}
		p.layers = append(p.layers, layer{in: l.In, out: l.Out, w: w, b: b, act: l.Act})
		if l.Out > p.maxWidth {
			p.maxWidth = l.Out
		}
	}
	if norm != nil {
		if len(norm.Mean) != p.inDim || len(norm.Std) != p.inDim {
			return nil, fmt.Errorf("ibp: normalizer length %d/%d does not match input dim %d",
				len(norm.Mean), len(norm.Std), p.inDim)
		}
		for j := range norm.Std {
			if !(norm.Std[j] > 0) || math.IsInf(norm.Std[j], 0) ||
				math.IsNaN(norm.Mean[j]) || math.IsInf(norm.Mean[j], 0) {
				return nil, fmt.Errorf("ibp: normalizer feature %d has bad mean/std %v/%v",
					j, norm.Mean[j], norm.Std[j])
			}
		}
		p.mean = append([]float64(nil), norm.Mean...)
		p.std = append([]float64(nil), norm.Std...)
	}
	return p, nil
}

// InputDim returns the expected box width.
func (p *Propagator) InputDim() int { return p.inDim }

// OutputDim returns the output box width.
func (p *Propagator) OutputDim() int { return p.outDim }

// NewScratch returns a Scratch pre-grown for this propagator.
func (p *Propagator) NewScratch() *Scratch {
	s := &Scratch{}
	s.grow(p.maxWidth)
	return s
}

// PredictInterval propagates box through the network and returns a fresh
// output box.  It allocates; hot paths should use PredictIntervalInto with
// a reused Scratch.
func (p *Propagator) PredictInterval(box []interval.Interval) []interval.Interval {
	dst := make([]interval.Interval, p.outDim)
	return p.PredictIntervalInto(dst, box, nil)
}

// PredictIntervalInto propagates box into dst (length ≥ OutputDim) and
// returns dst[:OutputDim].  Every input interval must be nonempty with
// finite bounds (a zero-weight times an infinite bound would poison the
// sums with NaN); violations panic, mirroring Predict's shape panics.  A
// nil scr allocates temporary buffers; passing a reused Scratch makes the
// steady state allocation-free.
func (p *Propagator) PredictIntervalInto(dst, box []interval.Interval, scr *Scratch) []interval.Interval {
	if len(box) != p.inDim {
		panic(fmt.Sprintf("ibp: PredictIntervalInto expects %d inputs, got %d", p.inDim, len(box)))
	}
	if len(dst) < p.outDim {
		panic(fmt.Sprintf("ibp: dst length %d below output dim %d", len(dst), p.outDim))
	}
	for k, iv := range box {
		if iv.IsEmpty() || math.IsNaN(iv.Lo) ||
			math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			panic(fmt.Sprintf("ibp: input %d is empty or non-finite: %v", k, iv))
		}
	}
	if scr == nil {
		scr = &Scratch{}
	}
	scr.grow(p.maxWidth)
	curLo, curHi := scr.lo[:p.inDim], scr.hi[:p.inDim]
	nxtLo, nxtHi := scr.lo2, scr.hi2
	point := true
	for k, iv := range box {
		if p.std != nil {
			// The normalizer is the same expression Normalizer.Apply
			// evaluates per sample, applied to each bound (Std > 0 keeps
			// the order), so point boxes stay bit-exact.
			curLo[k] = (iv.Lo - p.mean[k]) / p.std[k]
			curHi[k] = (iv.Hi - p.mean[k]) / p.std[k]
		} else {
			curLo[k], curHi[k] = iv.Lo, iv.Hi
		}
		point = point && curLo[k] == curHi[k]
	}
	if point {
		return p.predictPointInto(dst, curLo, nxtLo)
	}
	for _, l := range p.layers {
		outLo, outHi := nxtLo[:l.out], nxtHi[:l.out]
		for j := 0; j < l.out; j++ {
			wrow := l.w[j*l.in : (j+1)*l.in]
			// Sign-split accumulation in the same k-ascending order as
			// mat.MulBTransInto, bias added after the sum exactly as
			// Dense.Forward does — a point box reproduces Predict1 bitwise.
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
		curLo, curHi, nxtLo, nxtHi = outLo, outHi, curLo[:cap(curLo)], curHi[:cap(curHi)]
	}
	for j := 0; j < p.outDim; j++ {
		dst[j] = interval.Interval{Lo: curLo[j], Hi: curHi[j]}
	}
	return dst[:p.outDim]
}

// predictPointInto is PredictIntervalInto for a box whose normalized
// bounds coincide.  The two-sided loop would run the same operations on
// the same values in both lanes (lo == hi, and a ±0 product never changes
// a sum that starts at +0), so one pass through the shared dot kernel,
// then the bias and the activation, gives both bounds bit for bit — and
// is exactly Dense.Forward, so the result is Predict1's.  x holds the
// normalized input and is overwritten, as is buf.
func (p *Propagator) predictPointInto(dst []interval.Interval, x, buf []float64) []interval.Interval {
	for _, l := range p.layers {
		out := buf[:l.out]
		mat.DotRowsInto(out, x, l.w)
		for j, s := range out {
			out[j] = l.act.Apply(s + l.b[j])
		}
		x, buf = out, x[:cap(x)]
	}
	for j, y := range x {
		dst[j] = interval.Interval{Lo: y, Hi: y}
	}
	return dst[:p.outDim]
}

// PredictInterval1 propagates box through a single-output network and
// returns the certified output range — the hot-path twin of
// Network.Predict1.  It panics on multi-output networks.
func (p *Propagator) PredictInterval1(box []interval.Interval, scr *Scratch) interval.Interval {
	if p.outDim != 1 {
		panic("ibp: PredictInterval1 on multi-output propagator")
	}
	var out [1]interval.Interval
	p.PredictIntervalInto(out[:], box, scr)
	return out[0]
}
