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

func scenario() leftturn.Config { return leftturn.DefaultConfig() }

// exactKnowledge builds Knowledge from perfectly known oncoming state.
func exactKnowledge(s dynamics.State, a float64) Knowledge {
	e := leftturn.ExactEstimate(s, a)
	return Knowledge{Sound: e, Fused: e}
}

func TestNames(t *testing.T) {
	c := scenario()
	p := planner.ConservativeExpert(c)
	if got := (&PureNN{Cfg: c, Planner: p}).Name(); got != "pure:expert-conservative" {
		t.Fatalf("PureNN name = %q", got)
	}
	if got := NewBasic(c, p).Name(); got != "basic:expert-conservative" {
		t.Fatalf("Basic name = %q", got)
	}
	if got := NewUltimate(c, p).Name(); got != "ultimate:expert-conservative" {
		t.Fatalf("Ultimate name = %q", got)
	}
	if got := (&Compound{Cfg: c, Planner: p}).Name(); got != "compound:expert-conservative" {
		t.Fatalf("zero-value Compound name = %q", got)
	}
}

func TestPureNeverFlagsEmergency(t *testing.T) {
	c := scenario()
	agent := &PureNN{Cfg: c, Planner: planner.AggressiveExpert(c)}
	k := exactKnowledge(dynamics.State{P: -10, V: 10}, 0)
	for p := -40.0; p < 20; p += 5 {
		_, em := agent.Accel(0, dynamics.State{P: p, V: 8}, k)
		if em {
			t.Fatal("pure planner reported emergency")
		}
	}
}

func TestCompoundEmergencyOnBoundary(t *testing.T) {
	c := scenario()
	agent := NewBasic(c, planner.AggressiveExpert(c))
	// Ego straddling the boundary band with an overlapping conflict.
	v := 10.0
	p := c.Geometry.PF - c.BrakingDistance(v) - c.BoundaryThreshold(v)/2
	ego := dynamics.State{P: p, V: v}
	onc := dynamics.State{P: -10, V: 12} // arriving soon
	a, em := agent.Accel(0, ego, exactKnowledge(onc, 0))
	if !em {
		t.Fatal("boundary state did not trigger the emergency planner")
	}
	if want := c.EmergencyAccel(ego); a != want {
		t.Fatalf("emergency accel = %v, want %v", a, want)
	}
}

func TestBasicVsUltimateWindowSelection(t *testing.T) {
	c := scenario()
	// A spy planner records the window it is given.
	var seen interval.Interval
	spy := planner.Func{PlannerName: "spy", F: func(_ float64, _ dynamics.State, w interval.Interval) float64 {
		seen = w
		return 0
	}}
	onc := dynamics.State{P: -35, V: 8}
	k := exactKnowledge(onc, 0.5)
	ego := dynamics.State{P: -30, V: 8}

	basic := NewBasic(c, spy)
	basic.Accel(0, ego, k)
	wantCons := c.ConservativeWindow(k.Fused)
	if seen != wantCons {
		t.Fatalf("basic gave κ_n %v, want conservative %v", seen, wantCons)
	}

	ultimate := NewUltimate(c, spy)
	ultimate.Accel(0, ego, k)
	wantAggr := c.AggressiveWindow(k.Fused)
	if seen != wantAggr {
		t.Fatalf("ultimate gave κ_n %v, want aggressive %v", seen, wantAggr)
	}
}

func TestMonitorUsesSoundEstimate(t *testing.T) {
	c := scenario()
	// Fused estimate says "no conflict" (C1 far), sound estimate says
	// "conflict imminent": the monitor must believe the sound one.
	var k Knowledge
	k.Fused = leftturn.ExactEstimate(dynamics.State{P: 100, V: 8}, 0) // past the zone
	k.Sound = leftturn.ExactEstimate(dynamics.State{P: -8, V: 12}, 0) // imminent
	v := 10.0
	p := c.Geometry.PF - c.BrakingDistance(v) - c.BoundaryThreshold(v)/2
	ego := dynamics.State{P: p, V: v}
	agent := NewUltimate(c, planner.AggressiveExpert(c))
	_, em := agent.Accel(0, ego, k)
	if !em {
		t.Fatal("monitor trusted the unsound fused estimate")
	}
}

func TestGuardsClampPlannerOutput(t *testing.T) {
	c := scenario()
	// Braking planner in a committed pass-before state: the floor must
	// override the planner's AMin.
	brake := planner.Func{PlannerName: "brake", F: func(float64, dynamics.State, interval.Interval) float64 {
		return c.Ego.AMin
	}}
	agent := NewBasic(c, brake)
	ego := dynamics.State{P: 0, V: 12} // committed
	onc := dynamics.State{P: -40, V: 5}
	a, em := agent.Accel(0, ego, exactKnowledge(onc, 0))
	if em {
		t.Fatalf("unexpected emergency")
	}
	if a <= c.Ego.AMin {
		t.Fatalf("floor did not clamp braking planner: a=%v", a)
	}
}

// The headline property (DESIGN.md invariant #3, paper §III-E): the
// compound planner with exact knowledge never collides, regardless of the
// embedded planner — here randomized planners, including adversarial ones.
func TestQuickCompoundSafetyAnyPlanner(t *testing.T) {
	c := scenario()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A planner that outputs random admissible accelerations — the
		// worst kind of κ_n.
		chaotic := planner.Func{PlannerName: "chaos", F: func(float64, dynamics.State, interval.Interval) float64 {
			return c.Ego.AMin + rng.Float64()*(c.Ego.AMax-c.Ego.AMin)
		}}
		var agent Agent
		if seed%2 == 0 {
			agent = NewBasic(c, chaotic)
		} else {
			agent = NewUltimate(c, chaotic)
		}
		ego := c.EgoInit
		onc := dynamics.State{P: -40 + rng.Float64()*9.5, V: 5 + rng.Float64()*10}
		var oncA float64
		for i := 0; i < 800; i++ {
			tt := float64(i) * c.DtC
			a, _ := agent.Accel(tt, ego, exactKnowledge(onc, oncA))
			ego, _ = dynamics.Step(ego, a, c.DtC, c.Ego)
			ba := -3 + rng.Float64()*5.5
			onc, oncA = dynamics.Step(onc, ba, c.DtC, c.Oncoming)
			if c.Collision(ego, onc) {
				return false
			}
			if c.ReachedTarget(ego) {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Compound safety must also hold under sound *interval* knowledge (the
// realistic case): blur the estimate while keeping it sound.
func TestQuickCompoundSafetyBlurredKnowledge(t *testing.T) {
	c := scenario()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		agent := NewUltimate(c, planner.AggressiveExpert(c))
		ego := c.EgoInit
		onc := dynamics.State{P: -40 + rng.Float64()*9.5, V: 5 + rng.Float64()*10}
		var oncA float64
		for i := 0; i < 800; i++ {
			tt := float64(i) * c.DtC
			// Sound blur: interval containing the truth, off-center.
			dp, dv := rng.Float64()*3, rng.Float64()*2
			op, ov := (rng.Float64()*2-1)*dp, (rng.Float64()*2-1)*dv
			sound := leftturn.OncomingEstimate{
				P:      interval.New(math.Min(onc.P-dp+op, onc.P), math.Max(onc.P+dp+op, onc.P)),
				V:      interval.New(math.Min(onc.V-dv+ov, onc.V), math.Max(onc.V+dv+ov, onc.V)).ClampTo(c.Oncoming.VMin, c.Oncoming.VMax),
				PointP: onc.P + op,
				PointV: math.Max(0, onc.V+ov),
				A:      oncA,
			}
			k := Knowledge{Sound: sound, Fused: sound}
			a, _ := agent.Accel(tt, ego, k)
			ego, _ = dynamics.Step(ego, a, c.DtC, c.Ego)
			ba := -3 + rng.Float64()*5.5
			onc, oncA = dynamics.Step(onc, ba, c.DtC, c.Oncoming)
			if c.Collision(ego, onc) {
				return false
			}
			if c.ReachedTarget(ego) {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
