package reach

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
)

var lim = dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3}

func TestAtZeroDelay(t *testing.T) {
	snap := Snapshot{T: 2, S: dynamics.State{P: 10, V: 5}}
	got := At(snap, 2, lim)
	if got.P != interval.Point(10) || got.V != interval.Point(5) {
		t.Fatalf("zero-delay reach = %+v", got)
	}
}

func TestAtNegativeDelay(t *testing.T) {
	snap := Snapshot{T: 2, S: dynamics.State{P: 10, V: 5}}
	got := At(snap, 1, lim)
	if !got.Contains(snap.S) {
		t.Fatalf("negative-delay reach should pin the snapshot, got %+v", got)
	}
}

func TestAtGrowsWithDelay(t *testing.T) {
	// The reach set at a later time is not a superset of the earlier one
	// (the vehicle keeps moving, so the lower position bound advances too),
	// but its *uncertainty* — the interval width — must be non-decreasing,
	// and both bounds must advance monotonically for a forward-only vehicle.
	snap := Snapshot{S: dynamics.State{P: 0, V: 8}}
	prev := At(snap, 0.1, lim)
	for _, dt := range []float64{0.2, 0.5, 1, 2, 5} {
		cur := At(snap, dt, lim)
		if cur.P.Width() < prev.P.Width()-1e-12 || cur.V.Width() < prev.V.Width()-1e-12 {
			t.Fatalf("uncertainty shrank at dt=%v: %+v vs %+v", dt, cur, prev)
		}
		if cur.P.Lo < prev.P.Lo-1e-12 || cur.P.Hi < prev.P.Hi-1e-12 {
			t.Fatalf("position bounds regressed at dt=%v", dt)
		}
		prev = cur
	}
}

func TestAtMatchesPaperEq2(t *testing.T) {
	// Non-saturating branch: p + v·dt + ½·a_max·dt².
	snap := Snapshot{S: dynamics.State{P: 0, V: 5}}
	dt := 1.0
	got := At(snap, dt, lim)
	wantHi := 5*dt + 0.5*lim.AMax*dt*dt
	if math.Abs(got.P.Hi-wantHi) > 1e-12 {
		t.Fatalf("P.Hi = %v, want %v (Eq. 2, first branch)", got.P.Hi, wantHi)
	}
	// Saturating branch: v reaches vMax before dt elapses.
	snap = Snapshot{S: dynamics.State{P: 0, V: 14}}
	dt = 2.0
	got = At(snap, dt, lim)
	// Paper form: p + vmax·dt − (vmax − v)²/(2·a_max).
	wantHi = lim.VMax*dt - (lim.VMax-14)*(lim.VMax-14)/(2*lim.AMax)
	if math.Abs(got.P.Hi-wantHi) > 1e-9 {
		t.Fatalf("saturating P.Hi = %v, want %v (Eq. 2, second branch)", got.P.Hi, wantHi)
	}
}

func TestVelocityBoundsClamped(t *testing.T) {
	snap := Snapshot{S: dynamics.State{P: 0, V: 8}}
	got := At(snap, 10, lim)
	if got.V.Lo != lim.VMin || got.V.Hi != lim.VMax {
		t.Fatalf("long-horizon velocity bounds = %v", got.V)
	}
}

func TestSetContains(t *testing.T) {
	s := Set{P: interval.New(0, 10), V: interval.New(2, 4)}
	if !s.Contains(dynamics.State{P: 5, V: 3}) {
		t.Error("state inside reported outside")
	}
	if s.Contains(dynamics.State{P: 11, V: 3}) {
		t.Error("position outside reported inside")
	}
	if s.Contains(dynamics.State{P: 5, V: 5}) {
		t.Error("velocity outside reported inside")
	}
}

func TestSetExpandIntersect(t *testing.T) {
	s := Set{P: interval.New(0, 10), V: interval.New(2, 4)}
	e := s.Expand(1, 0.5)
	if e.P.Lo != -1 || e.P.Hi != 11 || e.V.Lo != 1.5 || e.V.Hi != 4.5 {
		t.Fatalf("Expand = %+v", e)
	}
	x := s.Intersect(Set{P: interval.New(5, 20), V: interval.New(0, 3)})
	if x.P.Lo != 5 || x.P.Hi != 10 || x.V.Lo != 2 || x.V.Hi != 3 {
		t.Fatalf("Intersect = %+v", x)
	}
	if !s.Intersect(Set{P: interval.New(20, 30), V: s.V}).IsEmpty() {
		t.Fatal("disjoint intersection should be empty")
	}
}

func TestEntire(t *testing.T) {
	e := Entire(lim)
	if !e.Contains(dynamics.State{P: 1e9, V: 7}) {
		t.Fatal("Entire should contain any in-envelope state")
	}
	if e.Contains(dynamics.State{P: 0, V: 20}) {
		t.Fatal("Entire must still bound velocity")
	}
}

// Soundness: simulate the vehicle under arbitrary admissible accelerations
// and verify its true state always lies inside the reachable set computed
// from the stale snapshot.  This is safety invariant #1 in DESIGN.md.
func TestQuickSoundness(t *testing.T) {
	const dt = 0.05
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := dynamics.State{P: rng.Float64()*80 - 40, V: rng.Float64() * lim.VMax}
		snap := Snapshot{T: 0, S: s}
		for i := 1; i <= 100; i++ {
			a := lim.AMin + rng.Float64()*(lim.AMax-lim.AMin)
			s, _ = dynamics.Step(s, a, dt, lim)
			set := At(snap, float64(i)*dt, lim)
			// Tiny slack for float accumulation over 100 steps.
			if !set.Expand(1e-7, 1e-7).Contains(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Soundness of FromSet: propagating an interval set must contain every
// trajectory starting inside it.
func TestQuickFromSetSoundness(t *testing.T) {
	const dt = 0.05
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := Set{
			P: interval.New(-5, 5),
			V: interval.New(2, 6),
		}
		s := dynamics.State{
			P: base.P.Lo + rng.Float64()*base.P.Width(),
			V: base.V.Lo + rng.Float64()*base.V.Width(),
		}
		cur := base
		for i := 0; i < 60; i++ {
			a := lim.AMin + rng.Float64()*(lim.AMax-lim.AMin)
			s, _ = dynamics.Step(s, a, dt, lim)
			cur = FromSet(cur, dt, lim)
			if !cur.Expand(1e-7, 1e-7).Contains(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSetEmptyAndZeroDt(t *testing.T) {
	s := Set{P: interval.New(0, 1), V: interval.New(0, 1)}
	if got := FromSet(s, 0, lim); got != s {
		t.Fatal("zero-dt propagation should be identity")
	}
	e := Set{P: interval.Empty(), V: interval.New(0, 1)}
	if got := FromSet(e, 1, lim); !got.IsEmpty() {
		t.Fatal("empty set should stay empty")
	}
}
