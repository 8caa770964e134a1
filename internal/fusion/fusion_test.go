package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/comms"
	"safeplan/internal/dynamics"
	"safeplan/internal/sensor"
)

var lim = dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3}

func newFilter(t *testing.T, useKF bool, delta float64) *Filter {
	t.Helper()
	f, err := New(Config{
		Limits:    lim,
		Sensor:    sensor.Uniform(delta),
		UseKalman: useKF,
		Replay:    true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Limits: dynamics.Limits{VMin: 1, VMax: 0, AMin: -1, AMax: 1}}); err == nil {
		t.Error("bad limits accepted")
	}
	if _, err := New(Config{Limits: lim, Sensor: sensor.Config{DeltaP: -1}}); err == nil {
		t.Error("bad sensor config accepted")
	}
}

func TestNoInformation(t *testing.T) {
	f := newFilter(t, true, 1)
	est := f.EstimateAt(0)
	if est.HasInfo {
		t.Fatal("fresh filter claims information")
	}
	if !est.P.Contains(1e12) {
		t.Fatal("position should be unbounded without information")
	}
	if est.V.Lo != lim.VMin || est.V.Hi != lim.VMax {
		t.Fatalf("velocity should be the physical envelope, got %v", est.V)
	}
	if !math.IsInf(f.MessageAge(5), 1) {
		t.Fatal("MessageAge should be +Inf without messages")
	}
}

// TestEstimateIntoOverwritesSlot pins the in-place contract the steppers
// rely on: EstimateInto rewrites every field of a reused slot, so a slot
// last written with information (HasInfo, a nonzero A) reads exactly as
// EstimateAt once the filter has none.  (Compared in print form: the
// information-free point position is NaN.)
func TestEstimateIntoOverwritesSlot(t *testing.T) {
	same := func(a, b Estimate) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }
	for _, useKF := range []bool{false, true} {
		f := newFilter(t, useKF, 1)
		f.InitExact(0, dynamics.State{P: -35, V: 8}, 0.5)
		var slot Estimate
		f.EstimateInto(&slot, 0.3)
		if !same(slot, f.EstimateAt(0.3)) {
			t.Fatalf("kf=%v: EstimateInto = %+v, want %+v", useKF, slot, f.EstimateAt(0.3))
		}
		f.Reset()
		f.EstimateInto(&slot, 0.4)
		if want := f.EstimateAt(0.4); !same(slot, want) || slot.HasInfo || slot.A != 0 {
			t.Fatalf("kf=%v: reused slot = %+v, want %+v", useKF, slot, want)
		}
	}
}

func TestInitExactPinsState(t *testing.T) {
	f := newFilter(t, true, 1)
	f.InitExact(0, dynamics.State{P: -35, V: 8}, 0.5)
	est := f.EstimateAt(0)
	if !est.HasInfo {
		t.Fatal("no info after InitExact")
	}
	if !est.P.Contains(-35) || est.P.Width() > 1e-6 {
		t.Fatalf("P = %v, want point at -35", est.P)
	}
	if est.A != 0.5 {
		t.Fatalf("A = %v", est.A)
	}
	if f.MessageAge(1) != 1 {
		t.Fatalf("MessageAge = %v", f.MessageAge(1))
	}
}

func TestMessageReachabilityGrowth(t *testing.T) {
	f := newFilter(t, false, 1)
	f.OnMessage(comms.Message{T: 0, P: 0, V: 8, A: 0})
	e1 := f.EstimateAt(0.5)
	e2 := f.EstimateAt(2.0)
	if e2.P.Width() < e1.P.Width() {
		t.Fatal("uncertainty should grow with message age")
	}
}

func TestStaleMessageIgnored(t *testing.T) {
	f := newFilter(t, false, 1)
	f.OnMessage(comms.Message{T: 2, P: 10, V: 8})
	f.OnMessage(comms.Message{T: 1, P: 0, V: 0}) // older — ignore
	if f.MessageAge(2) != 0 {
		t.Fatal("stale message overwrote newer one")
	}
	est := f.EstimateAt(2)
	if !est.P.Contains(10) {
		t.Fatalf("estimate lost the newer message: %v", est.P)
	}
}

func TestReadingSharpensEstimate(t *testing.T) {
	f := newFilter(t, false, 1)
	f.OnMessage(comms.Message{T: 0, P: 0, V: 8, A: 0})
	stale := f.EstimateAt(3) // 3 s of reachability growth: wide
	f.OnReading(sensor.Reading{T: 3, P: 24, V: 8, A: 0})
	fresh := f.EstimateAt(3)
	if fresh.P.Width() >= stale.P.Width() {
		t.Fatalf("fresh reading should shrink the interval: %v vs %v", fresh.P, stale.P)
	}
	if fresh.P.Width() > 2*1+1e-6 { // ±δp (plus the sound-side pad)
		t.Fatalf("reading interval too wide: %v", fresh.P)
	}
}

func TestAccelSourcePreference(t *testing.T) {
	f := newFilter(t, false, 1)
	f.OnMessage(comms.Message{T: 1, P: 0, V: 8, A: 0.7})
	if est := f.EstimateAt(1); est.A != 0.7 {
		t.Fatalf("A = %v, want message accel", est.A)
	}
	// Newer reading wins.
	f.OnReading(sensor.Reading{T: 2, P: 8, V: 8, A: -0.3})
	if est := f.EstimateAt(2); est.A != -0.3 {
		t.Fatalf("A = %v, want reading accel", est.A)
	}
	// A newer message wins back.
	f.OnMessage(comms.Message{T: 3, P: 16, V: 8, A: 1.1})
	if est := f.EstimateAt(3); est.A != 1.1 {
		t.Fatalf("A = %v, want newest message accel", est.A)
	}
}

func TestOutOfOrderReadingIgnored(t *testing.T) {
	f := newFilter(t, false, 1)
	f.OnReading(sensor.Reading{T: 2, P: 10, V: 5})
	f.OnReading(sensor.Reading{T: 1, P: 0, V: 0})
	est := f.EstimateAt(2)
	if !est.P.Contains(10) {
		t.Fatalf("older reading overwrote newer one: %v", est.P)
	}
}

func TestKalmanTightensOverBasic(t *testing.T) {
	// Run the same noisy trajectory through a basic (no KF) and an
	// information-filter configuration; after convergence the KF interval
	// must be narrower.  This is the mechanism behind the ultimate
	// planner's efficiency gain.
	const delta = 3.0
	basic := newFilter(t, false, delta)
	ultimate := newFilter(t, true, delta)
	rng := rand.New(rand.NewSource(5))
	s := dynamics.State{P: 0, V: 8}
	basic.InitExact(0, s, 0)
	ultimate.InitExact(0, s, 0)
	const dt = 0.1
	var a float64
	for i := 1; i <= 100; i++ {
		a = -1 + 2*rng.Float64()
		var applied float64
		s, applied = dynamics.Step(s, a, dt, lim)
		r := sensor.Reading{
			T: float64(i) * dt,
			P: s.P + (rng.Float64()*2-1)*delta,
			V: s.V + (rng.Float64()*2-1)*delta,
			A: applied + (rng.Float64()*2-1)*delta,
		}
		basic.OnReading(r)
		ultimate.OnReading(r)
	}
	tNow := 100 * dt
	eb := basic.EstimateAt(tNow)
	eu := ultimate.EstimateAt(tNow)
	if eu.V.Width() >= eb.V.Width() {
		t.Fatalf("KF should tighten velocity: ultimate %v vs basic %v", eu.V, eb.V)
	}
	if !eu.V.Contains(s.V) && math.Abs(eu.PointV-s.V) > 1.5 {
		t.Fatalf("ultimate velocity estimate far from truth: %v vs %v", eu.V, s.V)
	}
}

func TestMessageReplayImprovesPoint(t *testing.T) {
	const delta = 3.0
	f := newFilter(t, true, delta)
	rng := rand.New(rand.NewSource(11))
	s := dynamics.State{P: 0, V: 8}
	f.InitExact(0, s, 0)
	const dt = 0.1
	type snap struct {
		t float64
		s dynamics.State
		a float64
	}
	var snaps []snap
	for i := 1; i <= 50; i++ {
		a := -1 + 2*rng.Float64()
		var applied float64
		s, applied = dynamics.Step(s, a, dt, lim)
		snaps = append(snaps, snap{float64(i) * dt, s, applied})
		f.OnReading(sensor.Reading{
			T: float64(i) * dt,
			P: s.P + (rng.Float64()*2-1)*delta,
			V: s.V + (rng.Float64()*2-1)*delta,
			A: applied + (rng.Float64()*2-1)*delta,
		})
	}
	now := 50 * dt
	before := f.EstimateAt(now)
	// Delayed message: exact state from 0.3 s ago.
	m := snaps[len(snaps)-4]
	f.OnMessage(comms.Message{T: m.t, P: m.s.P, V: m.s.V, A: m.a})
	after := f.EstimateAt(now)
	if after.P.Width() >= before.P.Width() {
		t.Fatalf("replayed message should shrink interval: %v vs %v", after.P, before.P)
	}
	if math.Abs(after.PointP-s.P) > math.Abs(before.PointP-s.P)+0.5 {
		t.Fatalf("replayed message worsened the point estimate: %.3f → %.3f (truth %.3f)",
			before.PointP, after.PointP, s.P)
	}
}

func TestReset(t *testing.T) {
	f := newFilter(t, true, 1)
	f.InitExact(0, dynamics.State{P: 1, V: 2}, 0)
	f.OnReading(sensor.Reading{T: 1, P: 1, V: 2})
	f.Reset()
	if est := f.EstimateAt(2); est.HasInfo {
		t.Fatal("Reset did not clear information")
	}
}

// Soundness property (DESIGN.md invariant #1 applied to the full filter):
// with basic (sound-only) fusion, the true state is always inside the
// estimate, for arbitrary trajectories, message patterns, and noise.
func TestQuickBasicFusionSound(t *testing.T) {
	const dt = 0.05
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := 0.5 + rng.Float64()*3
		flt, err := New(Config{Limits: lim, Sensor: sensor.Uniform(delta)})
		if err != nil {
			return false
		}
		s := dynamics.State{P: -40 + rng.Float64()*10, V: rng.Float64() * 12}
		flt.InitExact(0, s, 0)
		var applied float64
		for i := 1; i <= 200; i++ {
			now := float64(i) * dt
			a := lim.AMin + rng.Float64()*(lim.AMax-lim.AMin)
			s, applied = dynamics.Step(s, a, dt, lim)
			if i%2 == 0 { // sensing period 0.1
				flt.OnReading(sensor.Reading{
					T: now,
					P: s.P + (rng.Float64()*2-1)*delta,
					V: s.V + (rng.Float64()*2-1)*delta,
					A: applied + (rng.Float64()*2-1)*delta,
				})
			}
			if i%2 == 0 && rng.Float64() < 0.5 { // intermittent messages
				flt.OnMessage(comms.Message{T: now, P: s.P, V: s.V, A: applied})
			}
			est := flt.EstimateAt(now)
			if !est.P.Expand(1e-6).Contains(s.P) || !est.V.Expand(1e-6).Contains(s.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// With the Kalman filter enabled, the joined estimate must still contain
// the truth essentially always (the sound components bound the join, and
// the KF interval at 3σ rarely excludes the truth; any empty intersection
// falls back to the sound set).
func TestQuickUltimateFusionMostlySound(t *testing.T) {
	const dt = 0.05
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := 1 + rng.Float64()*2
		flt, err := New(Config{Limits: lim, Sensor: sensor.Uniform(delta), UseKalman: true, Replay: true})
		if err != nil {
			return false
		}
		s := dynamics.State{P: -40, V: 8}
		flt.InitExact(0, s, 0)
		misses := 0
		var applied float64
		const steps = 200
		for i := 1; i <= steps; i++ {
			now := float64(i) * dt
			a := -1 + rng.Float64()*2
			s, applied = dynamics.Step(s, a, dt, lim)
			if i%2 == 0 {
				flt.OnReading(sensor.Reading{
					T: now,
					P: s.P + (rng.Float64()*2-1)*delta,
					V: s.V + (rng.Float64()*2-1)*delta,
					A: applied + (rng.Float64()*2-1)*delta,
				})
			}
			est := flt.EstimateAt(now)
			if !est.P.Contains(s.P) || !est.V.Contains(s.V) {
				misses++
			}
			// The sound pair must contain the truth on every step, KF or
			// not — that is what the safety machinery consumes.
			if !est.SoundP.Contains(s.P) || !est.SoundV.Contains(s.V) {
				return false
			}
		}
		// "Mostly sound": the 3σ KF join may exclude the truth around
		// sharp accelerations; it is an efficiency estimate, not a safety
		// one, so only gross inconsistency fails the test.
		return misses <= steps/4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
