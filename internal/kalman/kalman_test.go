package kalman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/dynamics"
)

var lim = dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3}

func defaultCfg() Config {
	return Config{DeltaP: 1, DeltaV: 1, DeltaA: 1}
}

// simulateNoisy drives a ground-truth vehicle and feeds noisy measurements
// to the filter, returning final truth and a per-step callback hook.
func simulateNoisy(t *testing.T, f *Filter, steps int, dt float64, seed int64,
	each func(step int, truth dynamics.State)) dynamics.State {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := dynamics.State{P: 0, V: 8}
	var a float64
	for i := 1; i <= steps; i++ {
		a = -1 + rng.Float64()*2
		var applied float64
		s, applied = dynamics.Step(s, a, dt, lim)
		zp := s.P + (rng.Float64()*2-1)*f.cfg.DeltaP
		zv := s.V + (rng.Float64()*2-1)*f.cfg.DeltaV
		za := applied + (rng.Float64()*2-1)*f.cfg.DeltaA
		if err := f.Update(float64(i)*dt, zp, zv, za); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if each != nil {
			each(i, s)
		}
	}
	return s
}

// TestUninitializedInterval: a fresh filter has no interval to offer, and
// says so through Initialized, the check fusion makes before it joins the
// Kalman side (fusion's TestNoInformation covers that side).
func TestUninitializedInterval(t *testing.T) {
	f := New(defaultCfg())
	if f.Initialized() {
		t.Fatal("fresh filter claims initialized")
	}
}

func TestInitExact(t *testing.T) {
	f := New(defaultCfg())
	f.InitExact(1, 10, 5, 0.5)
	if !f.Initialized() || f.tf != 1 {
		t.Fatal("InitExact bookkeeping wrong")
	}
	x, p := f.Estimate()
	if x.X != 10 || x.Y != 5 {
		t.Fatalf("Estimate = %v", x)
	}
	if p.A > 1e-9 || p.D > 1e-9 {
		t.Fatalf("exact init covariance too large: %v", p)
	}
}

func TestFirstUpdateAdoptsMeasurement(t *testing.T) {
	f := New(defaultCfg())
	if err := f.Update(0.1, 3, 4, 0); err != nil {
		t.Fatal(err)
	}
	x, p := f.Estimate()
	if x.X != 3 || x.Y != 4 {
		t.Fatalf("first estimate = %v", x)
	}
	if p.A != 1.0/3 || p.D != 1.0/3 {
		t.Fatalf("first covariance should equal R, got %v", p)
	}
}

func TestOutOfOrderMeasurementRejected(t *testing.T) {
	f := New(defaultCfg())
	if err := f.Update(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Update(0.5, 0, 0, 0); err == nil {
		t.Fatal("out-of-order measurement accepted")
	}
}

func TestFilterReducesNoise(t *testing.T) {
	// The filtered estimate should track ground truth better than the raw
	// measurements do — the paper's §V-C claim (RMSE reduction).
	cfg := Config{DeltaP: 2, DeltaV: 2, DeltaA: 2}
	f := New(cfg)
	f.InitExact(0, 0, 8, 0)
	rng := rand.New(rand.NewSource(7))
	s := dynamics.State{P: 0, V: 8}
	var rawSq, filtSq float64
	n := 0
	const dt = 0.1
	for i := 1; i <= 300; i++ {
		a := -1 + rng.Float64()*2
		var applied float64
		s, applied = dynamics.Step(s, a, dt, lim)
		zp := s.P + (rng.Float64()*2-1)*cfg.DeltaP
		zv := s.V + (rng.Float64()*2-1)*cfg.DeltaV
		za := applied + (rng.Float64()*2-1)*cfg.DeltaA
		if err := f.Update(float64(i)*dt, zp, zv, za); err != nil {
			t.Fatal(err)
		}
		if i > 20 { // skip transient
			x, _ := f.Estimate()
			rawSq += (zv - s.V) * (zv - s.V)
			filtSq += (x.Y - s.V) * (x.Y - s.V)
			n++
		}
	}
	rawRMSE := math.Sqrt(rawSq / float64(n))
	filtRMSE := math.Sqrt(filtSq / float64(n))
	if filtRMSE >= rawRMSE*0.6 {
		t.Fatalf("filter should cut velocity RMSE substantially: raw=%.3f filt=%.3f", rawRMSE, filtRMSE)
	}
}

func TestCovarianceStaysPSD(t *testing.T) {
	f := New(defaultCfg())
	simulateNoisy(t, f, 500, 0.1, 3, func(i int, _ dynamics.State) {
		_, p := f.Estimate()
		scale := 1 + max(math.Abs(p.A), math.Abs(p.B), math.Abs(p.C), math.Abs(p.D))
		if math.Abs(p.B-p.C) > 1e-9*scale {
			t.Fatalf("step %d: covariance asymmetric: %v", i, p)
		}
		// A symmetric 2×2 matrix is PSD iff its trace and determinant
		// are both nonnegative.
		if tr, det := p.A+p.D, p.A*p.D-p.B*p.C; tr < -1e-9 || det < -1e-9*(1+tr*tr) {
			t.Fatalf("step %d: covariance not PSD: %v", i, p)
		}
	})
}

func TestEstimateAtExtrapolates(t *testing.T) {
	f := New(defaultCfg())
	f.InitExact(0, 0, 10, 0)
	x, p := f.EstimateAt(1)
	if math.Abs(x.X-10) > 1e-9 || math.Abs(x.Y-10) > 1e-9 {
		t.Fatalf("extrapolated state = %v", x)
	}
	if p.A <= 0 {
		t.Fatal("extrapolated covariance must grow")
	}
	// t before the estimate returns the estimate unchanged.
	x2, _ := f.EstimateAt(-5)
	if x2.X != 0 || x2.Y != 10 {
		t.Fatalf("past-time estimate = %v", x2)
	}
}

func TestIntervalAtWidthGrowsWithK(t *testing.T) {
	f := New(defaultCfg())
	simulateNoisy(t, f, 50, 0.1, 9, nil)
	x, p := f.EstimateAt(f.tf)
	p1, v1 := Interval(x, p, 1)
	p3, v3 := Interval(x, p, 3)
	if p3.Width() <= p1.Width() || v3.Width() <= v1.Width() {
		t.Fatal("3-sigma interval should be wider than 1-sigma")
	}
}

func TestApplyMessageSharpensEstimate(t *testing.T) {
	cfg := Config{DeltaP: 3, DeltaV: 3, DeltaA: 3}
	const dt = 0.1
	rng := rand.New(rand.NewSource(21))
	truth := dynamics.State{P: 0, V: 8}
	type snap struct {
		t float64
		s dynamics.State
		a float64
	}
	var snaps []snap
	f := New(cfg)
	f.InitExact(0, truth.P, truth.V, 0)
	for i := 1; i <= 40; i++ {
		a := -1 + rng.Float64()*2
		var applied float64
		truth, applied = dynamics.Step(truth, a, dt, lim)
		snaps = append(snaps, snap{t: float64(i) * dt, s: truth, a: applied})
		zp := truth.P + (rng.Float64()*2-1)*cfg.DeltaP
		zv := truth.V + (rng.Float64()*2-1)*cfg.DeltaV
		za := applied + (rng.Float64()*2-1)*cfg.DeltaA
		if err := f.Update(float64(i)*dt, zp, zv, za); err != nil {
			t.Fatal(err)
		}
	}
	xBefore, pBefore := f.Estimate()
	errBefore := math.Abs(xBefore.X - truth.P)

	// A delayed message reporting the exact state 0.5 s ago arrives.
	m := snaps[len(snaps)-6]
	f.ApplyMessage(m.t, m.s.P, m.s.V, m.a)
	xAfter, pAfter := f.Estimate()
	errAfter := math.Abs(xAfter.X - truth.P)

	if f.tf != snaps[len(snaps)-1].t {
		t.Fatalf("replay should end at the last measurement time, got %v", f.tf)
	}
	if pAfter.A >= pBefore.A {
		t.Fatalf("message should shrink position variance: before=%v after=%v", pBefore.A, pAfter.A)
	}
	if errAfter > errBefore+1e-9 && errAfter > 0.5 {
		t.Fatalf("message should not worsen the estimate much: before=%.4f after=%.4f", errBefore, errAfter)
	}
}

func TestApplyMessageNewerThanAllMeasurements(t *testing.T) {
	f := New(defaultCfg())
	f.InitExact(0, 0, 5, 0)
	f.ApplyMessage(2, 11, 6, 0.5)
	if f.tf != 2 {
		t.Fatalf("Time = %v, want 2", f.tf)
	}
	x, _ := f.Estimate()
	if x.X != 11 || x.Y != 6 {
		t.Fatalf("Estimate = %v", x)
	}
}

func TestApplyMessageOnUninitializedFilter(t *testing.T) {
	f := New(defaultCfg())
	f.ApplyMessage(1, 4, 3, 0)
	if !f.Initialized() {
		t.Fatal("message should initialize the filter")
	}
	x, p := f.EstimateAt(1)
	pos, vel := Interval(x, p, 3)
	if !pos.Contains(4) || !vel.Contains(3) {
		t.Fatal("interval should cover the message state")
	}
}

func TestHistoryBounded(t *testing.T) {
	f := New(Config{DeltaP: 1, DeltaV: 1, DeltaA: 1, HistoryLen: 16})
	for i := 1; i <= 200; i++ {
		if err := f.Update(float64(i)*0.1, float64(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.hist) > 16 {
		t.Fatalf("history grew to %d > 16", len(f.hist))
	}
}

func TestReset(t *testing.T) {
	f := New(defaultCfg())
	f.InitExact(0, 1, 2, 3)
	if err := f.Update(1, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	f.Reset()
	if f.Initialized() || len(f.hist) != 0 || f.tf != 0 {
		t.Fatal("Reset incomplete")
	}
}

// Property: for randomized trajectories the 4-sigma interval contains the
// true state the vast majority of steps (the filter is consistent).
func TestQuickIntervalCoverage(t *testing.T) {
	const dt = 0.1
	f4 := func(seed int64) bool {
		cfg := Config{DeltaP: 2, DeltaV: 2, DeltaA: 2}
		f := New(cfg)
		f.InitExact(0, 0, 8, 0)
		rng := rand.New(rand.NewSource(seed))
		s := dynamics.State{P: 0, V: 8}
		misses := 0
		const steps = 150
		for i := 1; i <= steps; i++ {
			a := -1 + rng.Float64()*2
			var applied float64
			s, applied = dynamics.Step(s, a, dt, lim)
			zp := s.P + (rng.Float64()*2-1)*cfg.DeltaP
			zv := s.V + (rng.Float64()*2-1)*cfg.DeltaV
			za := applied + (rng.Float64()*2-1)*cfg.DeltaA
			if err := f.Update(float64(i)*dt, zp, zv, za); err != nil {
				return false
			}
			x, p := f.EstimateAt(f.tf)
			pos, vel := Interval(x, p, 4)
			if !pos.Contains(s.P) || !vel.Contains(s.V) {
				misses++
			}
		}
		return misses <= steps/20 // ≤5% misses at 4σ is generous
	}
	if err := quick.Check(f4, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: covariance trace stays bounded over long runs (the filter does
// not diverge).
func TestQuickCovarianceBounded(t *testing.T) {
	f := func(seed int64) bool {
		flt := New(Config{DeltaP: 1.5, DeltaV: 1.5, DeltaA: 1.5})
		rng := rand.New(rand.NewSource(seed))
		s := dynamics.State{P: 0, V: 8}
		const dt = 0.1
		for i := 1; i <= 400; i++ {
			a := -1 + rng.Float64()*2
			var applied float64
			s, applied = dynamics.Step(s, a, dt, lim)
			if err := flt.Update(float64(i)*dt,
				s.P+(rng.Float64()*2-1)*1.5,
				s.V+(rng.Float64()*2-1)*1.5,
				applied+(rng.Float64()*2-1)*1.5); err != nil {
				return false
			}
		}
		_, p := flt.Estimate()
		return p.A+p.D < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
