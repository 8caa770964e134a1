package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/planner"
)

func TestMostConstrainingWindow(t *testing.T) {
	got := MostConstrainingWindow([]interval.Interval{
		interval.New(3, 8),
		interval.New(1, 4),
		interval.Empty(),
		interval.New(6, 9),
	})
	if got.Lo != 1 || got.Hi != 4 {
		t.Fatalf("MostConstrainingWindow = %v", got)
	}
	if !MostConstrainingWindow(nil).IsEmpty() {
		t.Fatal("empty input should give empty window")
	}
	if !MostConstrainingWindow([]interval.Interval{interval.Empty()}).IsEmpty() {
		t.Fatal("all-empty input should give empty window")
	}
}

func TestMultiNames(t *testing.T) {
	c := scenario()
	p := planner.ConservativeExpert(c)
	if got := (&MultiPure{Cfg: c, Planner: p}).Name(); got != "pure-multi:expert-conservative" {
		t.Fatalf("MultiPure name = %q", got)
	}
	if got := NewMultiBasic(c, p).Name(); got != "basic-multi:expert-conservative" {
		t.Fatalf("MultiBasic name = %q", got)
	}
	if got := NewMultiUltimate(c, p).Name(); got != "ultimate-multi:expert-conservative" {
		t.Fatalf("MultiUltimate name = %q", got)
	}
	if got := (&MultiCompound{Cfg: c, Planner: p}).Name(); got != "compound-multi:expert-conservative" {
		t.Fatalf("zero-value MultiCompound name = %q", got)
	}
}

func TestMultiMatchesSingleForOneVehicle(t *testing.T) {
	c := scenario()
	p := planner.AggressiveExpert(c)
	single := NewUltimate(c, p)
	multi := NewMultiUltimate(c, p)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ego := dynamics.State{P: -40 + rng.Float64()*50, V: rng.Float64() * c.Ego.VMax}
		onc := dynamics.State{P: -45 + rng.Float64()*60, V: rng.Float64() * c.Oncoming.VMax}
		k := exactKnowledge(onc, 0)
		a1, e1 := single.Accel(0, ego, k)
		a2, e2 := multi.Accel(0, ego, []Knowledge{k})
		if a1 != a2 || e1 != e2 {
			t.Fatalf("single (%v,%v) != multi (%v,%v) for ego=%+v onc=%+v", a1, e1, a2, e2, ego, onc)
		}
	}
}

func TestMultiEmergencyIfAnyVehicleTriggers(t *testing.T) {
	c := scenario()
	agent := NewMultiBasic(c, planner.AggressiveExpert(c))
	v := 10.0
	p := c.Geometry.PF - c.BrakingDistance(v) - c.BoundaryThreshold(v)/2
	ego := dynamics.State{P: p, V: v}
	far := exactKnowledge(dynamics.State{P: -200, V: 3}, 0)  // harmless
	near := exactKnowledge(dynamics.State{P: -10, V: 12}, 0) // imminent
	if _, em := agent.Accel(0, ego, []Knowledge{far, far}); em {
		t.Fatal("two harmless vehicles should not trigger emergency")
	}
	if _, em := agent.Accel(0, ego, []Knowledge{far, near}); !em {
		t.Fatal("one imminent vehicle must trigger emergency")
	}
}

func TestMultiGuardsCombine(t *testing.T) {
	c := scenario()
	brake := planner.Func{PlannerName: "brake", F: func(float64, dynamics.State, interval.Interval) float64 {
		return c.Ego.AMin
	}}
	agent := NewMultiBasic(c, brake)
	ego := dynamics.State{P: 0, V: 12} // committed
	// Two vehicles arriving late: pass-before floors from both.
	k1 := exactKnowledge(dynamics.State{P: -60, V: 5}, 0)
	k2 := exactKnowledge(dynamics.State{P: -80, V: 5}, 0)
	a, em := agent.Accel(0, ego, []Knowledge{k1, k2})
	if em {
		t.Fatal("unexpected emergency")
	}
	if a <= c.Ego.AMin {
		t.Fatalf("combined floor did not clamp: %v", a)
	}
}

func TestMultiNoVehicles(t *testing.T) {
	c := scenario()
	agent := NewMultiUltimate(c, planner.ConservativeExpert(c))
	ego := dynamics.State{P: -30, V: 8}
	a, em := agent.Accel(0, ego, nil)
	if em {
		t.Fatal("emergency with no vehicles")
	}
	if a != c.Ego.AMax {
		t.Fatalf("empty road should be full throttle, got %v", a)
	}
}

// Multi-vehicle safety property: the compound planner never collides with
// any vehicle of a stream, even with an adversarial κ_n, under exact
// knowledge.
func TestQuickMultiCompoundSafety(t *testing.T) {
	c := scenario()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		chaotic := planner.Func{PlannerName: "chaos", F: func(float64, dynamics.State, interval.Interval) float64 {
			return c.Ego.AMin + rng.Float64()*(c.Ego.AMax-c.Ego.AMin)
		}}
		agent := NewMultiUltimate(c, chaotic)
		ego := c.EgoInit
		n := 2 + int(seed%3)
		oncs := make([]dynamics.State, n)
		accs := make([]float64, n)
		for i := range oncs {
			oncs[i] = dynamics.State{
				P: -40 - float64(i)*20 - rng.Float64()*8,
				V: 5 + rng.Float64()*10,
			}
		}
		for step := 0; step < 1200; step++ {
			tt := float64(step) * c.DtC
			ks := make([]Knowledge, n)
			for i := range oncs {
				ks[i] = exactKnowledge(oncs[i], accs[i])
			}
			a, _ := agent.Accel(tt, ego, ks)
			ego, _ = dynamics.Step(ego, a, c.DtC, c.Ego)
			for i := range oncs {
				ba := -3 + rng.Float64()*5.5
				oncs[i], accs[i] = dynamics.Step(oncs[i], ba, c.DtC, c.Oncoming)
				if c.Collision(ego, oncs[i]) {
					return false
				}
			}
			if c.ReachedTarget(ego) {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Sanity: the conflicting-commitment fallback fires rather than handing κ_n
// an impossible floor/ceiling pair.
func TestMultiConflictingCommitments(t *testing.T) {
	c := scenario()
	agent := NewMultiBasic(c, planner.AggressiveExpert(c))
	// Committed ego; vehicle A demands pass-before (floor at ≈AMax),
	// vehicle B demands pass-after (ceiling ≈AMin).  Construct windows via
	// raw estimates: A far but fast bound, B just leaving.
	ego := dynamics.State{P: 2, V: 8} // committed (slack < 0), window [0.375, 1.625]
	if c.Slack(ego) >= 0 {
		t.Fatal("setup: expected committed state")
	}
	// kA: earliest entry just after ego's exit → tight pass-before floor.
	kA := Knowledge{}
	kA.Sound = leftturn.OncomingEstimate{
		P: interval.Point(-28), V: interval.Point(15),
		PointP: -28, PointV: 15, A: 3,
	}
	kA.Fused = kA.Sound
	// kB: about to exit → pass-after ceiling near AMin.
	kB := Knowledge{}
	kB.Sound = leftturn.OncomingEstimate{
		P: interval.Point(14.9), V: interval.Point(0.5),
		PointP: 14.9, PointV: 0.5, A: 0,
	}
	kB.Fused = kB.Sound
	a, em := agent.Accel(0, ego, []Knowledge{kA, kB})
	// Whatever the resolution, the output must be admissible and the agent
	// must not panic; if both guards were returned the emergency fallback
	// must have fired.
	if math.IsNaN(a) || a < c.Ego.AMin || a > c.Ego.AMax {
		t.Fatalf("inadmissible output %v (em=%v)", a, em)
	}
}
