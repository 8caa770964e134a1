package dynamics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var testLimits = Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3}

func TestValidate(t *testing.T) {
	if err := testLimits.Validate(); err != nil {
		t.Fatalf("valid limits rejected: %v", err)
	}
	bad := []Limits{
		{VMin: 5, VMax: 1, AMin: -1, AMax: 1},
		{VMin: 0, VMax: 1, AMin: 1, AMax: 1},
		{VMin: 0, VMax: 1, AMin: -1, AMax: 0},
		{VMin: 0, VMax: 1, AMin: math.NaN(), AMax: 1},
		{VMin: 0, VMax: 1, AMin: -1, AMax: math.NaN()},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad limits %d accepted", i)
		}
	}
}

func TestStepBasicKinematics(t *testing.T) {
	s := State{P: 0, V: 10}
	next, a := Step(s, 2, 0.1, testLimits)
	if a != 2 {
		t.Fatalf("applied accel = %v", a)
	}
	wantP := 10*0.1 + 0.5*2*0.01
	wantV := 10 + 2*0.1
	if math.Abs(next.P-wantP) > 1e-12 || math.Abs(next.V-wantV) > 1e-12 {
		t.Fatalf("Step = %+v, want P=%v V=%v", next, wantP, wantV)
	}
}

func TestStepClampsAccelEnvelope(t *testing.T) {
	s := State{V: 5}
	_, a := Step(s, 100, 0.1, testLimits)
	if a != testLimits.AMax {
		t.Fatalf("accel not clamped to AMax: %v", a)
	}
	_, a = Step(s, -100, 0.1, testLimits)
	if a != testLimits.AMin {
		t.Fatalf("accel not clamped to AMin: %v", a)
	}
}

func TestStepVelocitySaturation(t *testing.T) {
	// Near top speed: full throttle must not push past VMax.
	s := State{V: 14.9}
	next, a := Step(s, 3, 0.1, testLimits)
	if next.V > testLimits.VMax+1e-12 {
		t.Fatalf("velocity exceeded VMax: %v", next.V)
	}
	if a >= 3 {
		t.Fatalf("accel should be reduced near VMax, got %v", a)
	}
	// Near standstill: braking must not produce negative speed.
	s = State{V: 0.1}
	next, _ = Step(s, -6, 0.1, testLimits)
	if next.V < testLimits.VMin-1e-12 {
		t.Fatalf("velocity below VMin: %v", next.V)
	}
}

func TestStepZeroDt(t *testing.T) {
	s := State{P: 3, V: 4}
	next, _ := Step(s, 2, 0, testLimits)
	if next != s {
		t.Fatalf("zero-dt step changed state: %+v", next)
	}
}

func TestStopDistance(t *testing.T) {
	if got := StopDistance(12, -6); got != 12 {
		t.Fatalf("StopDistance(12,-6) = %v, want 12", got)
	}
	if got := StopDistance(0, -6); got != 0 {
		t.Fatalf("StopDistance(0,-6) = %v", got)
	}
	if got := StopDistance(-3, -6); got != 0 {
		t.Fatalf("StopDistance of negative velocity = %v", got)
	}
	if got := StopDistance(5, 0); !math.IsInf(got, 1) {
		t.Fatalf("StopDistance with no braking = %v, want +Inf", got)
	}
}

func TestTimeToReachConstantSpeed(t *testing.T) {
	if got := TimeToReach(10, 5, 0, 15); got != 2 {
		t.Fatalf("TimeToReach const = %v, want 2", got)
	}
}

func TestTimeToReachZeroDistance(t *testing.T) {
	if got := TimeToReach(0, 5, 1, 15); got != 0 {
		t.Fatalf("TimeToReach(0) = %v", got)
	}
	if got := TimeToReach(-3, 5, 1, 15); got != 0 {
		t.Fatalf("TimeToReach(<0) = %v", got)
	}
}

func TestTimeToReachAccelerating(t *testing.T) {
	// v=0, a=2, vMax huge: d = ½·a·t² → t = sqrt(2d/a) = sqrt(10) for d=10.
	got := TimeToReach(10, 0, 2, 1e9)
	if math.Abs(got-math.Sqrt(10)) > 1e-9 {
		t.Fatalf("TimeToReach accel = %v, want %v", got, math.Sqrt(10))
	}
}

func TestTimeToReachWithSaturation(t *testing.T) {
	// v=0, a=2, vMax=4: accel phase t1=2s covering 4m; remaining 6m at 4 m/s
	// = 1.5s → total 3.5s for d=10.
	got := TimeToReach(10, 0, 2, 4)
	if math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("TimeToReach saturated = %v, want 3.5", got)
	}
}

func TestTimeToReachAboveVMax(t *testing.T) {
	// Starting above vMax we travel at vMax.
	got := TimeToReach(10, 20, 1, 5)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("TimeToReach clamped v = %v, want 2", got)
	}
}

func TestTimeToReachUnreachable(t *testing.T) {
	if got := TimeToReach(10, 0, 0, 15); !math.IsInf(got, 1) {
		t.Fatalf("unreachable (v=0,a=0) = %v", got)
	}
	if got := TimeToReach(10, 0, -1, 15); !math.IsInf(got, 1) {
		t.Fatalf("unreachable (v=0,a<0) = %v", got)
	}
	// Decelerating: v=4, a=-2 stops after 4 m < 10 m.
	if got := TimeToReach(10, 4, -2, 15); !math.IsInf(got, 1) {
		t.Fatalf("unreachable (stops short) = %v", got)
	}
}

func TestTimeToReachDecelReachable(t *testing.T) {
	// v=10, a=-2: stops after 25 m, so 9 m is reachable.
	// Solve 9 = 10t - t² → t = (10 - sqrt(100-36))/2 = 1.
	got := TimeToReach(9, 10, -2, 15)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("TimeToReach decel = %v, want 1", got)
	}
}

func TestDistanceAfter(t *testing.T) {
	// No accel.
	if got := DistanceAfter(2, 5, 0, 0, 15); got != 10 {
		t.Fatalf("DistanceAfter const = %v", got)
	}
	// Accelerating without saturation: 5·2 + ½·1·4 = 12.
	if got := DistanceAfter(2, 5, 1, 0, 15); got != 12 {
		t.Fatalf("DistanceAfter accel = %v", got)
	}
	// Saturating at vMax=6 after 1 s: 5+0.5 + 6·1 = 11.5.
	if got := DistanceAfter(2, 5, 1, 0, 6); math.Abs(got-11.5) > 1e-12 {
		t.Fatalf("DistanceAfter saturated = %v", got)
	}
	// Braking to standstill (vMin=0) after 1 s from v=2, a=-2: 1 m then stop.
	if got := DistanceAfter(5, 2, -2, 0, 15); math.Abs(got-1) > 1e-12 {
		t.Fatalf("DistanceAfter stop = %v", got)
	}
	// Zero/negative time.
	if got := DistanceAfter(0, 5, 1, 0, 15); got != 0 {
		t.Fatalf("DistanceAfter t=0 = %v", got)
	}
}

// Property: repeated Step never violates the velocity envelope and position
// is monotone non-decreasing when VMin ≥ 0.
func TestQuickStepEnvelope(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := State{P: rng.Float64()*100 - 50, V: rng.Float64() * testLimits.VMax}
		for i := 0; i < 200; i++ {
			prevP := s.P
			a := rng.Float64()*20 - 10
			s, _ = Step(s, a, 0.05, testLimits)
			if s.V < testLimits.VMin-1e-9 || s.V > testLimits.VMax+1e-9 {
				return false
			}
			if s.P < prevP-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistanceAfter is monotone in t.
func TestQuickDistanceAfterMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := rng.Float64() * 15
		a := rng.Float64()*12 - 6
		prev := 0.0
		for ti := 0.0; ti <= 5; ti += 0.25 {
			d := DistanceAfter(ti, v, a, 0, 15)
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TimeToReach and DistanceAfter are mutually consistent —
// travelling for the returned time covers at least d.
func TestQuickTimeDistanceConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Float64() * 50
		v := rng.Float64() * 10
		a := rng.Float64()*4 - 1
		vMax := 12.0
		tt := TimeToReach(d, v, a, vMax)
		if math.IsInf(tt, 1) {
			return true
		}
		got := DistanceAfter(tt, v, a, 0, vMax)
		return got >= d-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToCover(t *testing.T) {
	// Accelerating delegates to TimeToReach.
	if got, want := TimeToCover(10, 0, 2, 0, 1e9), math.Sqrt(10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TimeToCover accel = %v, want %v", got, want)
	}
	// Constant speed.
	if got := TimeToCover(10, 5, 0, 0, 15); got != 2 {
		t.Fatalf("TimeToCover const = %v", got)
	}
	// Decelerating with positive floor: v=10 → vMin=2 at a=-2 takes 4 s
	// covering 24 m; d=30 needs 3 more seconds at 2 m/s → 7 s.
	if got := TimeToCover(30, 10, -2, 2, 15); math.Abs(got-7) > 1e-9 {
		t.Fatalf("TimeToCover floor = %v, want 7", got)
	}
	// Decelerating, reached during the decel phase: 9 = 10t - t² → t=1.
	if got := TimeToCover(9, 10, -2, 2, 15); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TimeToCover decel-phase = %v, want 1", got)
	}
	// Stops short with zero floor.
	if got := TimeToCover(30, 10, -2, 0, 15); !math.IsInf(got, 1) {
		t.Fatalf("TimeToCover stop-short = %v, want +Inf", got)
	}
	// Zero distance.
	if got := TimeToCover(0, 0, -1, 0, 15); got != 0 {
		t.Fatalf("TimeToCover d=0 = %v", got)
	}
	// Standstill with zero accel.
	if got := TimeToCover(5, 0, 0, 0, 15); !math.IsInf(got, 1) {
		t.Fatalf("TimeToCover standstill = %v, want +Inf", got)
	}
}

// Property: TimeToCover is consistent with DistanceAfter under the same
// saturation semantics.
func TestQuickTimeToCoverConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Float64() * 60
		v := rng.Float64() * 12
		a := rng.Float64()*10 - 6
		vMin := rng.Float64() * 2
		vMax := 12.0 + rng.Float64()*3
		tt := TimeToCover(d, v, a, vMin, vMax)
		if math.IsInf(tt, 1) {
			// Claimed unreachable: even after a long time the distance must
			// stay short of d.
			return DistanceAfter(1e6, v, a, vMin, vMax) < d+1e-6
		}
		got := DistanceAfter(tt, v, a, vMin, vMax)
		return math.Abs(got-d) < 1e-5 || got >= d-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
