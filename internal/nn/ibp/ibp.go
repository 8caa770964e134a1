// Package ibp implements interval bound propagation (IBP) through the
// repository's feed-forward networks: given a box of input intervals it
// produces an output box guaranteed to contain Network.Predict1(x) — the
// float64 value, with no tolerance — for every float input x in the box.
//
// Every box travels in mid-radius form.  Each input interval [lo, hi] is
// normalized bound by bound (the normalizer is a monotone affine map, so
// the image holds the normalized float input Predict1 sees) and becomes
// the centre c = lo/2 + hi/2 and radius r = hi/2 − lo/2, which cannot
// overflow for finite bounds.  A dense layer y = act(W·x + b) maps it in
// one sweep of mat.MidRadInto over a snapshot of the layer's transposed
// weights Wᵀ (nn.Dense.WT, the layout Predict1 reads):
//
//	c' = W·c + b,   r' = |W|·r + margin,   z ∈ [c' − r', c' + r'],
//
// where the kernel takes |w| from the sign bit and keeps the centre and
// radius sums apart, each in the k order of Predict1's mat.VecMatInto,
// so both are bitwise the two separate passes.  In real arithmetic
// c' ± |W|·r is exactly the sign-split bound.  The per-row margin covers
// every rounding error in float64: Predict1's own dot product, the centre
// and radius passes, the mid-radius conversion and the margin arithmetic
// itself.  With γ_n = n·u/(1 − n·u), u = 2⁻⁵³, and M = max_k |c_k| + r_k,
// row j of a layer with fan-in n gets κ·(Σ_k |w_jk|·M + |b_j|),
// κ = γ_{4n+16}, with a floor of 2⁻⁹⁹⁹ for products that underflow.
//
// After the weight pass, one epilogue per hidden layer adds the bias and
// margin, encloses the activation and re-centres the bounds; for tanh
// layers it runs an AVX2 kernel (epilogue_amd64.s) that is bitwise its
// Go twin whenever mat.AVX2 reports the vector kernels in use.
//
// The activations are enclosed outward.  Tanh uses a fixed table of
// math.Tanh(i/128) on [0, 20]: tanh is concave on x ≥ 0, so the chord
// through the cell's ends lies below it, by at most 0.77/(8·128²)
// (max |tanh″| < 0.77).  With tanhRound = 1e-15 for the rounding of the
// table, of math.Tanh and of the chord, [chord − tanhRound,
// chord + tanhSlack] holds math.Tanh(x) for x ≥ 0, where
// tanhSlack = 0.77/(8·128²) + 1e-15, and x < 0 mirrors it.  Sigmoid is
// nudged outward by 2⁻⁴⁸ relative.  ReLU, LeakyReLU (α ≥ 0) and the
// identity are evaluated exactly as Predict1 evaluates them, and are
// monotone.  New rejects any other activation.
//
// A point box (every radius zero) takes the same path, but its radii are
// then only margins and enclosure slack, so each hidden layer bounds
// Σ_k |w_jk|·r_k by Σ_k |w_jk|·max_k r_k in place of the radius pass, and
// the output layer takes the exact radius pass.  So a point box does not reproduce Predict1 bit for
// bit: it contains it, and its width is the propagated margins and
// enclosure slack, at most 1.3e-3 for the shipped planners.  See
// DESIGN.md §15 for the error tally.  An input so large that a
// pre-activation might overflow gets the whole real line.
//
// A Propagator is immutable after New (weights are snapshotted: it keeps
// each layer's Wᵀ, which nn replaces rather than rewrites when the weights
// change, so later training of the source network is not reflected) and
// safe for concurrent use; per-call state lives in a caller-supplied
// Scratch.
package ibp

import (
	"fmt"
	"math"

	"safeplan/internal/interval"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
)

const (
	// unitRoundoff is u = 2⁻⁵³, float64's round-to-nearest unit.
	unitRoundoff = 0x1p-53
	// marginFloor is the least margin of a row: it dominates the absolute
	// error of every product that underflows (2⁻¹⁰⁷⁵ each).
	marginFloor = 0x1p-999
	// maxReach bounds Σ_k |w_jk|·M + |b_j| for a layer to run: below it no
	// centre, radius or bound can overflow.
	maxReach = math.MaxFloat64 / 8

	// tanhCellsPerUnit and tanhRange lay out tanhCell: cells of width
	// h = 1/128 on [0, 20].
	tanhCellsPerUnit = 128
	tanhRange        = 20
	tanhCells        = tanhRange * tanhCellsPerUnit
	// tanhRound covers rounding between the chord and math.Tanh: the
	// table's and Predict1's math.Tanh (a few 1e-16 each below 1), the
	// chord's product and sum, and the bound's own subtraction.
	tanhRound = 1e-15
	// tanhSlack is how far the chord may lie below tanh on x ≥ 0 (tanh is
	// concave there): h²/8·max|tanh″| with max|tanh″| = 4/(3√3) < 0.77,
	// plus tanhRound.
	tanhSlack = 0.77/(8*tanhCellsPerUnit*tanhCellsPerUnit) + tanhRound
	// tanhOffMid and tanhOffHalf place the enclosure around the chord
	// without a branch on the sign of x (see layer.activate).
	tanhOffMid  = (tanhSlack + tanhRound) / 2
	tanhOffHalf = (tanhSlack - tanhRound) / 2

	// sigmoidNudge widens a sigmoid bound outward, relative: math.Exp is
	// accurate to about an ulp, so 1/(1+exp(−x)) is within a few u of the
	// exact sigmoid and two float evaluations at ordered points cannot
	// cross by more than 2⁻⁴⁸.  sigmoidFloor covers results in the
	// subnormal range, where relative bounds fail.
	sigmoidNudge = 0x1p-48
	sigmoidFloor = 0x1p-1021
)

// useAsm selects the AVX2 tanh epilogue (epilogue_amd64.s).
var useAsm = mat.AVX2()

// epilogueConst holds the constants the AVX2 tanh epilogue broadcasts, in
// its order.
var epilogueConst = [...]float64{tanhOffHalf, tanhOffMid, tanhRange, tanhCellsPerUnit}

// tanhCell holds, per cell i of the tanh enclosure, y_i = math.Tanh(i/128)
// and the rise y_{i+1} − y_i (exact by Sterbenz: y_{i+1} ≤ 2·y_i for
// i ≥ 1, and y_0 = 0).  The final cell starts at 20, where the chord is
// flat at y = 1.  It is a fixed-size array, so it lives in the binary's
// data, not on the heap.
var tanhCell = func() (t [tanhCells + 1][2]float64) {
	for i := range t {
		y0 := math.Tanh(float64(i) / tanhCellsPerUnit)
		t[i] = [2]float64{y0, math.Tanh(float64(i+1)/tanhCellsPerUnit) - y0}
	}
	return t
}()

// tanhChord returns the chord through the table cell that holds
// min(a, 20), for a ≥ 0.  t and f are exact (scaling by a power of two,
// and a difference below 1 of nearby floats), so only the product and the
// sum round, and tanhRound covers both.
func tanhChord(a float64) float64 {
	t := min(a, tanhRange) * tanhCellsPerUnit
	i := int(t)
	c := &tanhCell[i]
	return c[0] + (t-float64(i))*c[1]
}

// gamma is γ_n = n·u/(1 − n·u), the relative error bound of an n-term
// float64 dot product.
func gamma(n int) float64 {
	nu := float64(n) * unitRoundoff
	return nu / (1 - nu)
}

// actKind selects a layer's enclosure loop.
type actKind uint8

const (
	actIdentity actKind = iota
	actTanh
	actSigmoid
	actMonotone // ReLU, LeakyReLU with α ≥ 0: act.Apply is exact and monotone
)

// kindOf classifies act, rejecting activations with no known enclosure.
func kindOf(act nn.Activation) (actKind, error) {
	switch a := act.(type) {
	case nn.Identity:
		return actIdentity, nil
	case nn.Tanh:
		return actTanh, nil
	case nn.Sigmoid:
		return actSigmoid, nil
	case nn.ReLU:
		return actMonotone, nil
	case nn.LeakyReLU:
		if a.Alpha < 0 {
			return 0, fmt.Errorf("ibp: leaky_relu with negative alpha %v is not monotone", a.Alpha)
		}
		return actMonotone, nil
	}
	return 0, fmt.Errorf("ibp: activation %q is not known to be monotone", act.Name())
}

// layer is an immutable snapshot of one dense layer plus the constants of
// its margins.
type layer struct {
	in, out int
	wt      []float64 // Wᵀ: in × out, row-major
	b       []float64
	rowsum  []float64 // Σ_k |w_jk|
	gb      []float64 // max(κ·|b_j|, marginFloor)
	kappa   float64   // κ = γ_{4·in+16}
	// rowsumMax and bMax bound the layer's reach for the overflow check.
	rowsumMax, bMax float64
	// outMax bounds |y| for every output bound y of a saturating
	// activation, standing in for the next layer's M; 0 otherwise.
	outMax float64
	act    nn.Activation
	kind   actKind
}

// enclose turns the centre and radius sums of rows j0 on, in lo and hi,
// into bounds on the layer output, in place: it adds the bias, widens by
// the margin r + rowsum·s + gb and encloses the activation.
func (l *layer) enclose(lo, hi []float64, s float64, j0 int) {
	hi = hi[:len(lo)]
	for j := j0; j < len(lo); j++ {
		cj := lo[j] + l.b[j]
		rho := hi[j] + l.rowsum[j]*s + l.gb[j]
		lo[j], hi[j] = cj-rho, cj+rho
	}
	l.activate(lo[j0:], hi[j0:])
}

// epilogue finishes a hidden layer in place: enclose on the centre and
// radius sums in c and r, then the output bounds back to centre and
// radius.  It returns the largest radius for a point box (the next
// layer's rmax) and 0 for any other box.  Tanh layers run the AVX2
// kernel on blocks of four rows when mat.AVX2 allows; epilogueGo is its
// twin, and runs the remaining rows and every other activation.
func (l *layer) epilogue(c, r []float64, s float64, point bool) float64 {
	j0, rmax := 0, 0.0
	if useAsm && l.kind == actTanh {
		j0 = len(c) &^ 3
		rmax = tanhEpilogueAsm(c[:j0], r[:j0], l.b, l.rowsum, l.gb, s, point)
	}
	return l.epilogueGo(c, r, s, point, j0, rmax)
}

// epilogueGo is epilogue in Go for rows j0 on, continuing the running
// maximum rmax of the rows before j0.
func (l *layer) epilogueGo(c, r []float64, s float64, point bool, j0 int, rmax float64) float64 {
	l.enclose(c, r, s, j0)
	r = r[:len(c)]
	for j := j0; j < len(c); j++ {
		lj, hj := c[j], r[j]
		c[j], r[j] = lj/2+hj/2, hj/2-lj/2
		if point {
			rmax = max(rmax, r[j])
		}
	}
	return rmax
}

// activate maps the pre-activation bounds [lo_j, hi_j] to bounds on the
// layer output, in place.
func (l *layer) activate(lo, hi []float64) {
	hi = hi[:len(lo)]
	switch l.kind {
	case actTanh:
		// For x ≥ 0 the chord is at most tanhSlack below tanh and at most
		// tanhRound above it, so [chord − tanhRound, chord + tanhSlack]
		// holds math.Tanh(x); tanh is odd, so x < 0 mirrors the offsets.
		// Both cases are copysign(chord(|x|) + tanhOffHalf, x) ∓ tanhOffMid.
		for j, x := range lo {
			lo[j] = math.Copysign(tanhChord(math.Abs(x))+tanhOffHalf, x) - tanhOffMid
		}
		for j, x := range hi {
			hi[j] = math.Copysign(tanhChord(math.Abs(x))+tanhOffHalf, x) + tanhOffMid
		}
	case actSigmoid:
		var s nn.Sigmoid
		for j := range lo {
			lo[j] = max(s.Apply(lo[j])*(1-sigmoidNudge)-sigmoidFloor, 0)
			hi[j] = s.Apply(hi[j])*(1+sigmoidNudge) + sigmoidFloor
		}
	case actMonotone:
		for j := range lo {
			lo[j], hi[j] = l.act.Apply(lo[j]), l.act.Apply(hi[j])
		}
	}
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
	c, r, c2, r2 []float64
}

// grow ensures every buffer holds at least n values.
func (s *Scratch) grow(n int) {
	if cap(s.c) < n {
		s.c = make([]float64, n)
		s.r = make([]float64, n)
		s.c2 = make([]float64, n)
		s.r2 = make([]float64, n)
	}
	s.c, s.r = s.c[:cap(s.c)], s.r[:cap(s.r)]
	s.c2, s.r2 = s.c2[:cap(s.c2)], s.r2[:cap(s.r2)]
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// New snapshots net (and the optional input normalizer norm) into a
// Propagator.  It fails when any activation has no enclosure (it must be
// monotone), any parameter is non-finite, or the normalizer is malformed
// (length mismatch or a scale that is not strictly positive).  The
// snapshot is deep: later training steps on net do not change the
// propagator.
func New(net *nn.Network, norm *nn.Normalizer) (*Propagator, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("ibp: nil or empty network")
	}
	p := &Propagator{inDim: net.InputDim(), outDim: net.OutputDim()}
	p.maxWidth = p.inDim
	for i, l := range net.Layers {
		kind, err := kindOf(l.Act)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		if !finite(l.W.Data()) {
			return nil, fmt.Errorf("ibp: layer %d has a non-finite weight", i)
		}
		if !finite(l.B) {
			return nil, fmt.Errorf("ibp: layer %d has a non-finite bias", i)
		}
		sl := layer{
			in: l.In, out: l.Out,
			wt:     l.WT(), // a snapshot: nn never writes a built Wᵀ
			b:      append([]float64(nil), l.B...),
			rowsum: make([]float64, l.Out),
			gb:     make([]float64, l.Out),
			kappa:  gamma(4*l.In + 16),
			act:    l.Act,
			kind:   kind,
		}
		switch kind {
		case actTanh:
			sl.outMax = 1 + 2*tanhSlack
		case actSigmoid:
			sl.outMax = 1 + 2*sigmoidNudge
		}
		for j := 0; j < l.Out; j++ {
			var s float64
			for _, w := range l.W.Row(j) {
				s += math.Abs(w)
			}
			sl.rowsum[j] = s
			sl.gb[j] = max(sl.kappa*math.Abs(sl.b[j]), marginFloor)
			sl.rowsumMax = max(sl.rowsumMax, s)
			sl.bMax = max(sl.bMax, math.Abs(sl.b[j]))
		}
		p.layers = append(p.layers, sl)
		p.maxWidth = max(p.maxWidth, l.Out)
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
// finite bounds (a zero weight times an infinite bound would poison the
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
		if iv.IsEmpty() || math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) ||
			math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			panic(fmt.Sprintf("ibp: input %d is empty or non-finite: %v", k, iv))
		}
	}
	if scr == nil {
		scr = &Scratch{}
	}
	scr.grow(p.maxWidth)
	c, r := scr.c[:p.inDim], scr.r[:p.inDim]
	var m, rmax float64
	for k, iv := range box {
		lo, hi := iv.Lo, iv.Hi
		if p.std != nil {
			// Normalizer.Apply's expression on each bound: rounding is
			// monotone, so the normalized box holds Predict1's input.
			lo = (lo - p.mean[k]) / p.std[k]
			hi = (hi - p.mean[k]) / p.std[k]
		}
		c[k], r[k] = lo/2+hi/2, hi/2-lo/2
		m = max(m, math.Abs(c[k])+r[k])
		rmax = max(rmax, r[k])
	}
	// A point box keeps its radii small: they are margins and enclosure
	// slack.  Its hidden layers then bound Σ_k |w_jk|·r_k by
	// rowsum_j·rmax in place of the radius pass's sum; the output layer,
	// usually a single row, keeps the exact sum.
	point := rmax == 0
	dst = dst[:p.outDim]
	nc, nr := scr.c2, scr.r2
	for i := range p.layers {
		l := &p.layers[i]
		if !(m*l.rowsumMax+l.bMax <= maxReach) {
			for j := range dst {
				dst[j] = interval.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
			}
			return dst
		}
		last := i == len(p.layers)-1
		// Centre pass into lo and radius pass into hi (cleared for a
		// point box's hidden layers).  s scales the rowsums: the margin
		// κ·M plus, for a point box, rmax.
		lo, hi := nc[:l.out], nr[:l.out]
		s := l.kappa * m
		mat.MidRadInto(lo, hi, c, r, l.wt)
		if point && (!last || rmax == 0) {
			s += rmax
			clear(hi)
		}
		if last {
			l.enclose(lo, hi, s, 0)
			for j := range dst {
				dst[j] = interval.Interval{Lo: lo[j], Hi: hi[j]}
			}
			return dst
		}
		rmax = l.epilogue(lo, hi, s, point)
		m = l.outMax
		if m == 0 {
			for j, cj := range lo {
				m = max(m, math.Abs(cj)+hi[j])
			}
		}
		c, r, nc, nr = lo, hi, c[:cap(c)], r[:cap(r)]
	}
	return dst
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
