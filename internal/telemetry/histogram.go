package telemetry

import (
	"math"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic Min/Max via CAS on the bit
// pattern.  The zero value is 0.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// fixedSum is an atomic sum whose value does not depend on the order of
// its additions: each value is rounded to a whole number of quanta,
// clamped and added as an int64.
type fixedSum struct {
	quantum float64
	clamp   float64 // in quanta
	quanta  atomic.Int64
}

// init sizes the sum for up to 2^addBits additions of values up to limit
// in magnitude: the clamp is limit rounded up to a power of two, and the
// quantum is the clamp over 2^(63-addBits), so the sum cannot overflow.
func (f *fixedSum) init(limit float64, addBits int) {
	f.clamp = math.Ldexp(1, 63-addBits)
	f.quantum = math.Ldexp(1, int(math.Ceil(math.Log2(limit)))-(63-addBits))
}

func (f *fixedSum) Add(v float64) {
	f.quanta.Add(int64(math.Max(-f.clamp, math.Min(f.clamp, math.Round(v/f.quantum)))))
}

func (f *fixedSum) Load() float64 { return float64(f.quanta.Load()) * f.quantum }

func (f *atomicFloat) Min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket, lock-free histogram: bucket i counts
// observations v with v <= Bounds[i] (and v > Bounds[i-1]); one overflow
// bucket counts v > Bounds[len-1].  Observe is wait-free on the bucket
// counters, so one histogram can absorb probes from every campaign
// worker without contention beyond cache-line traffic.  Its sum is a
// fixedSum, so the mean does not depend on the order of the
// observations.  It holds 2^26 ≈ 6.7e7 observations, more than the
// 80,000 × 450 = 3.6e7 steps of a paper-scale campaign, each clamped at
// 64 times the largest bound: the quantum is 2^-25 m (≈ 3e-8 m) for
// DefaultWidthBounds (clamp 4,096 m) and 2^-7 ns for
// DefaultLatencyBounds (clamp 2^30 ns ≈ 1.07 s).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow

	count atomic.Int64
	sum   fixedSum
	min   atomicFloat
	max   atomicFloat
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	largest := 1.0
	for _, b := range bounds {
		largest = math.Max(largest, math.Abs(b))
	}
	h.sum.init(64*largest, 26)
	h.min.Store(math.Inf(1))
	h.max.Store(math.Inf(-1))
	return h
}

// Observe records one value.  Non-finite values are ignored (an empty
// interval has no meaningful width; a NaN latency is a bug upstream).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.min.Min(v)
	h.max.Max(v)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped for
// JSON encoding.  Buckets[i] counts observations ≤ Bounds[i]; the last
// bucket (len(Bounds)) is the overflow bucket.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Mean    float64   `json:"mean"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the bucket that contains it.  The first bucket interpolates from
// Min, the overflow bucket toward Max, and the result is clamped into
// [Min, Max]; an empty histogram returns NaN.  The estimate is exact at
// the bucket bounds and monotone in q, which is all a latency report
// (p50/p99) needs from fixed-bucket data.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			frac := (target - cum) / float64(n)
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, s.Min), s.Max)
		}
		cum = next
	}
	return s.Max
}

// Snapshot copies the histogram's current state.  Concurrent Observe
// calls may land between field reads; each field is individually
// consistent, which is all a monitoring dump needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Mean = h.sum.Load() / float64(s.Count)
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}
