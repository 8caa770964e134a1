// Package kalman implements the Kalman filter of paper §III-B (Fig. 3) for
// the (position, velocity) state of another vehicle observed through noisy
// onboard sensors, including the paper's extension that incorporates V2V
// messages: when a (delayed) message reporting the exact state at time t_k
// arrives, the filter rolls back to t_k and replays the sensor measurements
// received since, so the message sharpens the *current* estimate.
//
// Model (paper notation, Δt = sensing period):
//
//	x(t+Δt) = F·x(t) + G·a(t)        F = [1 Δt; 0 1], G = [½Δt²; Δt]
//	Q = [¼Δt⁴ ½Δt³; ½Δt³ Δt²]·δa²/3  (process noise from accel uncertainty)
//	R = diag(δp²/3, δv²/3)           (uniform sensor noise variance)
//
// and the Joseph-form covariance update keeps P symmetric PSD.
package kalman

import (
	"fmt"
	"math"
	"sort"

	"safeplan/internal/interval"
	"safeplan/internal/mat"
)

// Config parameterizes the filter.
type Config struct {
	// DeltaP, DeltaV, DeltaA are the half-widths of the uniform sensor
	// noise for position, velocity, and acceleration (paper δ_p, δ_v, δ_a).
	DeltaP, DeltaV, DeltaA float64
	// HistoryLen bounds how many past measurements are retained for message
	// rollback/replay.  Zero selects DefaultHistoryLen.
	HistoryLen int
}

// DefaultHistoryLen retains ~25 s of measurements at a 0.1 s sensing period.
const DefaultHistoryLen = 256

// record is one sensing event retained for replay.
type record struct {
	t float64  // measurement timestamp
	z mat.Vec2 // measured (position, velocity)
	a float64  // measured acceleration (control input for the next predict)
}

// Filter is a 2-state Kalman filter with measurement history.
// It is not safe for concurrent use.
type Filter struct {
	cfg         Config
	r           mat.Mat2 // measurement noise covariance
	initialized bool

	tf    float64  // time of the latest filtered estimate
	xf    mat.Vec2 // x̂(tf | tf): filtered state
	pf    mat.Mat2 // P(tf | tf): filtered covariance
	lastA float64  // latest acceleration estimate (control input)

	hist []record // measurement history, oldest first
}

// New returns a Filter for the given sensor uncertainties.
func New(cfg Config) *Filter {
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = DefaultHistoryLen
	}
	return &Filter{
		cfg: cfg,
		r:   mat.Diag2(cfg.DeltaP*cfg.DeltaP/3, cfg.DeltaV*cfg.DeltaV/3),
		// push appends one record before compacting, so HistoryLen+1
		// capacity means the history never reallocates.
		hist: make([]record, 0, cfg.HistoryLen+1),
	}
}

// Initialized reports whether the filter has processed any information.
func (f *Filter) Initialized() bool { return f.initialized }

// stateTransition returns F(dt) and G(dt).
func stateTransition(dt float64) (mat.Mat2, mat.Vec2) {
	return mat.Mat2{A: 1, B: dt, C: 0, D: 1}, mat.Vec2{X: 0.5 * dt * dt, Y: dt}
}

// processNoise returns Q(dt) for acceleration uncertainty δa (uniform, so
// variance δa²/3).
func (f *Filter) processNoise(dt float64) mat.Mat2 {
	va := f.cfg.DeltaA * f.cfg.DeltaA / 3
	dt2 := dt * dt
	return mat.Mat2{
		A: 0.25 * dt2 * dt2 * va,
		B: 0.5 * dt2 * dt * va,
		C: 0.5 * dt2 * dt * va,
		D: dt2 * va,
	}
}

// ResetConfig reconfigures the filter in place and clears all state,
// reusing the history backing array when it is large enough.  Equivalent to
// replacing the filter with New(cfg).
func (f *Filter) ResetConfig(cfg Config) {
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = DefaultHistoryLen
	}
	f.cfg = cfg
	f.r = mat.Diag2(cfg.DeltaP*cfg.DeltaP/3, cfg.DeltaV*cfg.DeltaV/3)
	if cap(f.hist) < cfg.HistoryLen+1 {
		f.hist = make([]record, 0, cfg.HistoryLen+1)
	}
	f.Reset()
}

// Reset clears all state, returning the filter to the uninitialized state.
func (f *Filter) Reset() {
	f.initialized = false
	f.tf = 0
	f.xf = mat.Vec2{}
	f.pf = mat.Mat2{}
	f.lastA = 0
	f.hist = f.hist[:0]
}

// InitExact seeds the filter with an exactly known state (e.g. the initial
// broadcast at t = 0), with near-zero covariance.
func (f *Filter) InitExact(t float64, p, v, a float64) {
	f.initialized = true
	f.tf = t
	f.xf = mat.Vec2{X: p, Y: v}
	f.pf = mat.Diag2(1e-12, 1e-12)
	f.lastA = a
	f.hist = f.hist[:0]
}

// Update ingests a sensor measurement (measured position zp, velocity zv,
// acceleration za) taken at time t > Time().  It predicts the state forward
// from the previous estimate and applies the standard Kalman update.  The
// measurement is retained for message replay.
func (f *Filter) Update(t float64, zp, zv, za float64) error {
	z := mat.Vec2{X: zp, Y: zv}
	if !f.initialized {
		// First information: adopt the measurement with sensor covariance.
		f.initialized = true
		f.tf = t
		f.xf = z
		f.pf = f.r
		f.lastA = za
		f.push(record{t: t, z: z, a: za})
		return nil
	}
	if t < f.tf {
		return fmt.Errorf("kalman: out-of-order measurement t=%v < %v", t, f.tf)
	}
	f.step(t, z, za)
	f.push(record{t: t, z: z, a: za})
	return nil
}

// step predicts from f.tf to t using lastA and updates with measurement z.
func (f *Filter) step(t float64, z mat.Vec2, za float64) {
	dt := t - f.tf
	fm, g := stateTransition(dt)
	xp := fm.MulVec(f.xf).Add(g.Scale(f.lastA))
	pp := fm.Mul(f.pf).Mul(fm.Transpose()).Add(f.processNoise(dt))

	// Kalman gain K = P (P + R)⁻¹  (H = I).
	s := pp.Add(f.r)
	sInv, ok := s.Inverse()
	if !ok {
		// Both prior and measurement claim certainty; keep the prediction.
		f.tf = t
		f.xf = xp
		f.pf = pp
		f.lastA = za
		return
	}
	k := pp.Mul(sInv)
	innov := z.Sub(xp)
	f.xf = xp.Add(k.MulVec(innov))
	// Joseph form: (I−K) P (I−K)ᵀ + K R Kᵀ — numerically PSD-preserving.
	ik := mat.Identity2().Sub(k)
	f.pf = ik.Mul(pp).Mul(ik.Transpose()).Add(k.Mul(f.r).Mul(k.Transpose()))
	f.tf = t
	f.lastA = za
}

// ApplyMessage incorporates a V2V message that reports the *exact* state
// (p, v, a) of the vehicle at time tk (paper §II-A: message content is
// accurate, only delayed).  The filter rolls its estimate back to tk and
// replays every retained measurement newer than tk, which propagates the
// exact information to the present.
func (f *Filter) ApplyMessage(tk float64, p, v, a float64) {
	f.initialized = true
	f.tf = tk
	f.xf = mat.Vec2{X: p, Y: v}
	f.pf = mat.Diag2(1e-12, 1e-12)
	f.lastA = a
	// Replay retained measurements newer than tk directly from the
	// history: step never mutates hist, so no scratch copy is needed.
	// The history is nondecreasing in t — Update rejects t < Time(), and
	// Time() is at or past the newest record after every operation (a
	// replay ends on the newest record newer than its tk) — so the records
	// newer than tk are a suffix, found by binary search in the order a
	// full scan would visit them.
	first := sort.Search(len(f.hist), func(i int) bool { return f.hist[i].t > tk })
	for _, rec := range f.hist[first:] {
		f.step(rec.t, rec.z, rec.a)
	}
	// History keeps all records (they may be replayed again by an even
	// older message only if it arrives out of order, which we ignore:
	// replaying from an older tk would discard the newer exact info).
}

func (f *Filter) push(rec record) {
	f.hist = append(f.hist, rec)
	if len(f.hist) > f.cfg.HistoryLen {
		// Drop the oldest half to amortize the copy.
		n := len(f.hist) - f.cfg.HistoryLen/2
		f.hist = append(f.hist[:0], f.hist[n:]...)
	}
}

// Estimate returns the current filtered state and covariance at Time().
func (f *Filter) Estimate() (mat.Vec2, mat.Mat2) { return f.xf, f.pf }

// EstimateAt extrapolates the filtered estimate to time t ≥ Time() using
// the latest acceleration as control input; the covariance grows by the
// process noise.  For t ≤ Time() the current estimate is returned.
func (f *Filter) EstimateAt(t float64) (mat.Vec2, mat.Mat2) {
	dt := t - f.tf
	if dt <= 0 {
		return f.xf, f.pf
	}
	fm, g := stateTransition(dt)
	x := fm.MulVec(f.xf).Add(g.Scale(f.lastA))
	p := fm.Mul(f.pf).Mul(fm.Transpose()).Add(f.processNoise(dt))
	return x, p
}

// Interval returns the k-sigma confidence intervals for position and
// velocity of the estimate x with covariance p, e.g. of EstimateAt(t).
// This is the Kalman-side input to the information filter's interval join
// (paper §III-B), which takes it only from an Initialized filter.  k = 3
// covers ≳99.7% under Gaussian assumptions.
func Interval(x mat.Vec2, p mat.Mat2, k float64) (pos, vel interval.Interval) {
	sp := k * math.Sqrt(max(p.A, 0))
	sv := k * math.Sqrt(max(p.D, 0))
	return interval.New(x.X-sp, x.X+sp), interval.New(x.Y-sv, x.Y+sv)
}
