package leftturn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
)

func cfg() Config { return DefaultConfig() }

func TestDefaultConfigValid(t *testing.T) {
	c := cfg()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := cfg()
	bad.Geometry = Geometry{PF: 15, PB: 5}
	if bad.Validate() == nil {
		t.Error("reversed zone accepted")
	}
	bad = cfg()
	bad.DtC = 0
	if bad.Validate() == nil {
		t.Error("zero control period accepted")
	}
	bad = cfg()
	bad.ABuf = -1
	if bad.Validate() == nil {
		t.Error("negative buffer accepted")
	}
	bad = cfg()
	bad.Ego.AMax = 0
	if bad.Validate() == nil {
		t.Error("bad ego limits accepted")
	}
}

func TestSlackBranches(t *testing.T) {
	c := cfg()
	// Before the zone: pf − db − p0 with db = v²/(2·6).
	ego := dynamics.State{P: -30, V: 8}
	want := 5 - (8*8)/12.0 - (-30)
	if got := c.Slack(ego); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Slack before zone = %v, want %v", got, want)
	}
	// Inside the zone: p0 − pb ≤ 0.
	ego = dynamics.State{P: 10, V: 5}
	if got := c.Slack(ego); got != -5 {
		t.Fatalf("Slack inside zone = %v, want -5", got)
	}
	// Past the zone: +Inf.
	ego = dynamics.State{P: 16, V: 5}
	if got := c.Slack(ego); !math.IsInf(got, 1) {
		t.Fatalf("Slack past zone = %v, want +Inf", got)
	}
}

func TestSlackSignMeansStoppable(t *testing.T) {
	c := cfg()
	// Positive slack: braking at AMin from here must stop before PF.
	ego := dynamics.State{P: -20, V: 8}
	if c.Slack(ego) <= 0 {
		t.Fatal("expected positive slack for the test setup")
	}
	stop := ego.P + dynamics.StopDistance(ego.V, c.Ego.AMin)
	if stop > c.Geometry.PF {
		t.Fatalf("positive slack but stop point %v past PF", stop)
	}
	// Negative slack: cannot stop before PF.
	ego = dynamics.State{P: 0, V: 10}
	if c.Slack(ego) >= 0 {
		t.Fatal("expected negative slack for the test setup")
	}
	stop = ego.P + dynamics.StopDistance(ego.V, c.Ego.AMin)
	if stop <= c.Geometry.PF {
		t.Fatalf("negative slack but stop point %v before PF", stop)
	}
}

func TestEgoWindow(t *testing.T) {
	c := cfg()
	// Approaching: [ (pf−p)/v, (pb−p)/v ].
	w := c.EgoWindow(dynamics.State{P: -5, V: 5})
	if math.Abs(w.Lo-2) > 1e-12 || math.Abs(w.Hi-4) > 1e-12 {
		t.Fatalf("approach window = %v", w)
	}
	// Inside: [0, (pb−p)/v].
	w = c.EgoWindow(dynamics.State{P: 10, V: 5})
	if w.Lo != 0 || math.Abs(w.Hi-1) > 1e-12 {
		t.Fatalf("inside window = %v", w)
	}
	// Past: empty.
	if w = c.EgoWindow(dynamics.State{P: 20, V: 5}); !w.IsEmpty() {
		t.Fatalf("past window = %v, want empty", w)
	}
	// Stopped short of the zone: empty (never arrives at current speed).
	if w = c.EgoWindow(dynamics.State{P: -5, V: 0}); !w.IsEmpty() {
		t.Fatalf("stopped window = %v, want empty", w)
	}
	// Stopped inside the zone: [0, +Inf).
	w = c.EgoWindow(dynamics.State{P: 10, V: 0})
	if w.Lo != 0 || !math.IsInf(w.Hi, 1) {
		t.Fatalf("stuck window = %v", w)
	}
}

func TestConservativeWindowPointEstimate(t *testing.T) {
	c := cfg()
	// C1 40 m short of the front line at 8 m/s, known exactly.
	est := ExactEstimate(dynamics.State{P: -35, V: 8}, 0)
	w := c.ConservativeWindow(est)
	// Earliest entry: flat out at AMax=3 capped at VMax=15 over 40 m.
	wantLo := dynamics.TimeToReach(40, 8, 3, 15)
	if math.Abs(w.Lo-wantLo) > 1e-9 {
		t.Fatalf("entry = %v, want %v", w.Lo, wantLo)
	}
	// Latest exit: hard braking to VMin=0 → never covers 50 m → +Inf.
	if !math.IsInf(w.Hi, 1) {
		t.Fatalf("exit = %v, want +Inf with VMin=0", w.Hi)
	}
}

func TestConservativeWindowMatchesPaperEq7(t *testing.T) {
	// Compare the entry bound against the closed form of Eq. 7.
	c := cfg()
	lim := c.Oncoming
	for _, tc := range []struct{ p, v float64 }{{-35, 8}, {-10, 14}, {0, 5}, {4, 15}} {
		est := ExactEstimate(dynamics.State{P: tc.p, V: tc.v}, 0)
		w := c.ConservativeWindow(est)
		dth := (lim.VMax*lim.VMax - tc.v*tc.v) / (2 * lim.AMax)
		d := c.Geometry.PF - tc.p
		var want float64
		if d > dth {
			want = (lim.VMax-tc.v)/lim.AMax + (d-dth)/lim.VMax
		} else {
			want = (-tc.v + math.Sqrt(tc.v*tc.v+2*lim.AMax*d)) / lim.AMax
		}
		if math.Abs(w.Lo-want) > 1e-9 {
			t.Fatalf("p=%v v=%v: entry %v, Eq.7 gives %v", tc.p, tc.v, w.Lo, want)
		}
	}
}

func TestConservativeWindowPastZone(t *testing.T) {
	c := cfg()
	est := ExactEstimate(dynamics.State{P: 16, V: 8}, 0)
	if w := c.ConservativeWindow(est); !w.IsEmpty() {
		t.Fatalf("window for passed C1 = %v, want empty", w)
	}
}

func TestConservativeWindowEmptyEstimate(t *testing.T) {
	c := cfg()
	est := OncomingEstimate{P: interval.Empty(), V: interval.Empty()}
	if w := c.ConservativeWindow(est); !w.IsEmpty() {
		t.Fatalf("window for empty estimate = %v", w)
	}
}

func TestConservativeWindowWidensWithUncertainty(t *testing.T) {
	c := cfg()
	exact := ExactEstimate(dynamics.State{P: -35, V: 8}, 0)
	blurred := exact
	blurred.P = blurred.P.Expand(3)
	blurred.V = blurred.V.Expand(1).ClampTo(c.Oncoming.VMin, c.Oncoming.VMax)
	we, wb := c.ConservativeWindow(exact), c.ConservativeWindow(blurred)
	if !(wb.Lo <= we.Lo && wb.Hi >= we.Hi) {
		t.Fatalf("blurred window %v should contain exact window %v", wb, we)
	}
}

func TestAggressiveInsideConservative(t *testing.T) {
	c := cfg()
	est := ExactEstimate(dynamics.State{P: -35, V: 8}, 0.5)
	cons := c.ConservativeWindow(est)
	aggr := c.AggressiveWindow(est)
	if aggr.IsEmpty() {
		t.Fatal("aggressive window unexpectedly empty")
	}
	if aggr.Lo < cons.Lo || aggr.Hi > cons.Hi {
		t.Fatalf("aggressive %v not inside conservative %v", aggr, cons)
	}
	if aggr.Width() >= cons.Width() {
		t.Fatal("aggressive window should be strictly more compact")
	}
}

func TestAggressiveWindowNoConflictWhenDecelerating(t *testing.T) {
	c := cfg()
	// C1 crawling and braking: under the buffered assumption it never
	// arrives, so the aggressive window is empty.
	est := ExactEstimate(dynamics.State{P: -35, V: 0.2}, -2)
	if w := c.AggressiveWindow(est); !w.IsEmpty() {
		t.Fatalf("aggressive window = %v, want empty", w)
	}
	// The conservative window still flags the possibility.
	if w := c.ConservativeWindow(est); w.IsEmpty() {
		t.Fatal("conservative window must not be empty here")
	}
}

func TestUnsafeSet(t *testing.T) {
	c := cfg()
	// Committed ego (negative slack) with overlapping windows → unsafe.
	ego := dynamics.State{P: 0, V: 10} // slack = 5 − 100/12 < 0
	w := c.EgoWindow(ego)
	if !c.InUnsafeSet(ego, w) { // oncoming window equal to ego's window
		t.Fatal("overlapping committed state should be unsafe")
	}
	// Positive slack is never unsafe.
	ego2 := dynamics.State{P: -30, V: 8}
	if c.InUnsafeSet(ego2, interval.New(0, 100)) {
		t.Fatal("stoppable state must not be unsafe")
	}
	// Negative slack but disjoint windows: safe.
	if c.InUnsafeSet(ego, interval.New(50, 60)) {
		t.Fatal("disjoint windows must not be unsafe")
	}
}

func TestBoundaryThresholdPositive(t *testing.T) {
	c := cfg()
	if c.BoundaryThreshold(8) <= 0 {
		t.Fatal("threshold must be positive for moving ego")
	}
	// Factor (1 − amax/amin) with amax=3, amin=−6 is 1.5.
	want := (8*c.DtC + 0.5*3*c.DtC*c.DtC) * 1.5
	if got := c.BoundaryThreshold(8); math.Abs(got-want) > 1e-12 {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
}

func TestBoundarySafeSet(t *testing.T) {
	c := cfg()
	// Construct a state with slack just inside [0, threshold).
	v := 8.0
	th := c.BoundaryThreshold(v)
	db := c.BrakingDistance(v)
	p := c.Geometry.PF - db - th/2 // slack = th/2
	ego := dynamics.State{P: p, V: v}
	s := c.Slack(ego)
	if s < 0 || s >= th {
		t.Fatalf("test setup wrong: slack=%v threshold=%v", s, th)
	}
	overlap := c.EgoWindow(ego)
	if !c.InBoundarySafeSet(ego, overlap) {
		t.Fatal("state straddling the boundary should be in X_b")
	}
	// Same slack, disjoint windows → not in X_b.
	if c.InBoundarySafeSet(ego, interval.New(1000, 2000)) {
		t.Fatal("disjoint windows should not trigger X_b")
	}
	// Large slack → not in X_b.
	far := dynamics.State{P: -30, V: 8}
	if c.InBoundarySafeSet(far, overlap) {
		t.Fatal("far state should not be in X_b")
	}
	// Negative slack → not in X_b (already committed).
	committed := dynamics.State{P: 0, V: 10}
	if c.InBoundarySafeSet(committed, c.EgoWindow(committed)) {
		t.Fatal("negative-slack state should not be in X_b")
	}
}

func TestEmergencyAccel(t *testing.T) {
	c := cfg()
	// Short of the line: brake to stop StopMargin before PF.
	ego := dynamics.State{P: -15, V: 8}
	want := -8.0 * 8 / (2 * (20 - c.StopMargin))
	if got := c.EmergencyAccel(ego); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EmergencyAccel = %v, want %v", got, want)
	}
	// Inside the zone: full throttle out.
	if got := c.EmergencyAccel(dynamics.State{P: 10, V: 3}); got != c.Ego.AMax {
		t.Fatalf("in-zone EmergencyAccel = %v, want AMax", got)
	}
	// At the line with speed: committed (cannot stop before PF anymore) —
	// escape at full throttle rather than parking in the zone.
	if got := c.EmergencyAccel(dynamics.State{P: c.Geometry.PF, V: 5}); got != c.Ego.AMax {
		t.Fatalf("at-line EmergencyAccel = %v, want AMax (committed escape)", got)
	}
	// Stopped at the line: hold.
	if got := c.EmergencyAccel(dynamics.State{P: c.Geometry.PF, V: 0}); got != 0 {
		t.Fatalf("stopped EmergencyAccel = %v, want 0", got)
	}
	// Within the stop margin but still stoppable (slack ≥ 0): max braking.
	if got := c.EmergencyAccel(dynamics.State{P: c.Geometry.PF - c.StopMargin/2, V: 0.5}); got != c.Ego.AMin {
		t.Fatalf("inside-margin EmergencyAccel = %v, want AMin", got)
	}
	// Committed at speed: escape.
	if got := c.EmergencyAccel(dynamics.State{P: 4.5, V: 12}); got != c.Ego.AMax {
		t.Fatalf("committed EmergencyAccel = %v, want AMax", got)
	}
}

func TestMinAccelToClear(t *testing.T) {
	c := cfg()
	// Already past the back line: any accel works; floor is AMin.
	if a, ok := c.MinAccelToClear(dynamics.State{P: 16, V: 5}, 1); !ok || a != c.Ego.AMin {
		t.Fatalf("past-line floor = %v, %v", a, ok)
	}
	// Infinite window: no constraint.
	if a, ok := c.MinAccelToClear(dynamics.State{P: 0, V: 5}, math.Inf(1)); !ok || a != c.Ego.AMin {
		t.Fatalf("infinite-window floor = %v, %v", a, ok)
	}
	// Zero window with distance to go: infeasible.
	if _, ok := c.MinAccelToClear(dynamics.State{P: 0, V: 5}, 0); ok {
		t.Fatal("zero window should be infeasible")
	}
	// Infeasible even at AMax.
	if _, ok := c.MinAccelToClear(dynamics.State{P: -30, V: 0}, 0.5); ok {
		t.Fatal("45 m in 0.5 s from standstill should be infeasible")
	}
	// Feasible: the returned floor must cover the distance, and a slightly
	// smaller accel must not.
	ego := dynamics.State{P: 0, V: 8}
	a, ok := c.MinAccelToClear(ego, 2.0)
	if !ok {
		t.Fatal("expected feasible")
	}
	d := c.Geometry.PB - ego.P
	if got := dynamics.DistanceAfter(2.0, ego.V, a, c.Ego.VMin, c.Ego.VMax); got < d-1e-6 {
		t.Fatalf("floor %v covers only %v of %v m", a, got, d)
	}
	if a > c.Ego.AMin {
		if got := dynamics.DistanceAfter(2.0, ego.V, a-0.01, c.Ego.VMin, c.Ego.VMax); got >= d {
			t.Fatalf("floor %v is not minimal", a)
		}
	}
}

func TestTargetAndCollision(t *testing.T) {
	c := cfg()
	if !c.ReachedTarget(dynamics.State{P: 15.01}) {
		t.Error("past back line should reach target")
	}
	if c.ReachedTarget(dynamics.State{P: 15}) {
		t.Error("at back line is not yet the target")
	}
	if !c.Collision(dynamics.State{P: 10}, dynamics.State{P: 12}) {
		t.Error("both in zone should collide")
	}
	if c.Collision(dynamics.State{P: 10}, dynamics.State{P: 16}) {
		t.Error("one out of zone should not collide")
	}
	if !c.InZone(5) || !c.InZone(15) || c.InZone(4.99) {
		t.Error("InZone boundary semantics wrong")
	}
}

func TestFeatures(t *testing.T) {
	ego := dynamics.State{P: -10, V: 6}
	f := Features(2.5, ego, interval.New(3, 7))
	want := []float64{2.5, -10, 6, 3, 7}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("Features = %v, want %v", f, want)
		}
	}
	// Empty window saturates at the cap.
	f = Features(0, ego, interval.Empty())
	if f[3] != FeatureTimeCap || f[4] != FeatureTimeCap {
		t.Fatalf("empty-window features = %v", f)
	}
	// Infinite exit saturates at the cap.
	f = Features(0, ego, interval.New(2, math.Inf(1)))
	if f[3] != 2 || f[4] != FeatureTimeCap {
		t.Fatalf("inf-window features = %v", f)
	}
}

// Safety invariant #2 (DESIGN.md), discrete form of Eq. 4: from any state
// with slack ≥ SafetyMargin — which is what the monitor's widened boundary
// band guarantees at the moment κ_e first takes over — repeatedly applying
// the emergency planner never lets the ego cross the front line.
func TestQuickEmergencyInvariant(t *testing.T) {
	c := cfg()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ego := dynamics.State{
			P: -40 + rng.Float64()*44.9, // up to just before PF
			V: rng.Float64() * c.Ego.VMax,
		}
		if c.Slack(ego) < c.SafetyMargin {
			return true // outside the precondition κ_e is engaged under
		}
		s := ego
		for i := 0; i < 1000; i++ {
			a := c.EmergencyAccel(s)
			s, _ = dynamics.Step(s, a, c.DtC, c.Ego)
			if s.P > c.Geometry.PF {
				return false
			}
			if s.V == 0 {
				break
			}
		}
		return s.P <= c.Geometry.PF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The widened boundary band must be wide enough that a single control step
// from just outside the band (under any admissible acceleration) cannot
// drive the slack below SafetyMargin — the hand-off precondition above.
func TestQuickBoundaryBandHandoff(t *testing.T) {
	c := cfg()
	w := interval.New(0, math.Inf(1))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ego := dynamics.State{
			P: -40 + rng.Float64()*44.9,
			V: rng.Float64() * c.Ego.VMax,
		}
		if c.InBoundarySafeSet(ego, w) || c.Slack(ego) < 0 {
			return true // we test states the monitor leaves to κ_n
		}
		if math.IsInf(c.Slack(ego), 1) {
			return true
		}
		// One arbitrary κ_n step; afterwards the state must either still
		// have slack ≥ SafetyMargin (κ_e can take over) or be past PF in a
		// way only possible if slack was hugely positive (not reachable in
		// one step from the sampled region, so treat as failure).
		a := c.Ego.AMin + rng.Float64()*(c.Ego.AMax-c.Ego.AMin)
		next, _ := dynamics.Step(ego, a, c.DtC, c.Ego)
		if next.P > c.Geometry.PF {
			return false
		}
		return c.Slack(next) >= c.SafetyMargin-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the aggressive window is always contained in the conservative
// window for point estimates (DESIGN.md invariant #6).
func TestQuickAggressiveSubsetOfConservative(t *testing.T) {
	c := cfg()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := dynamics.State{
			P: -45 + rng.Float64()*55,
			V: rng.Float64() * c.Oncoming.VMax,
		}
		a := c.Oncoming.AMin + rng.Float64()*(c.Oncoming.AMax-c.Oncoming.AMin)
		est := ExactEstimate(s, a)
		cons := c.ConservativeWindow(est)
		aggr := c.AggressiveWindow(est)
		if aggr.IsEmpty() {
			return true
		}
		// Tolerate float slack at the edges.
		outer := cons.Expand(1e-9)
		return !outer.IsEmpty() && outer.Lo <= aggr.Lo && aggr.Hi <= outer.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the conservative window always contains the realized passing
// time of C1, for any admissible behaviour and sound estimate — the
// soundness that the safety argument rests on.
func TestQuickConservativeWindowSound(t *testing.T) {
	c := cfg()
	const dt = 0.05
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := dynamics.State{P: -40 + rng.Float64()*5, V: 2 + rng.Float64()*10}
		est := ExactEstimate(s, 0)
		w := c.ConservativeWindow(est)
		// Drive C1 with random admissible accelerations; record the real
		// entry and exit times.
		var entry, exit float64 = -1, -1
		for i := 1; i <= 2000; i++ {
			a := c.Oncoming.AMin + rng.Float64()*(c.Oncoming.AMax-c.Oncoming.AMin)
			s, _ = dynamics.Step(s, a, dt, c.Oncoming)
			now := float64(i) * dt
			if entry < 0 && s.P >= c.Geometry.PF {
				entry = now
			}
			if exit < 0 && s.P > c.Geometry.PB {
				exit = now
				break
			}
		}
		if entry < 0 {
			return true // never entered within the horizon (stopped)
		}
		if entry < w.Lo-dt {
			return false // entered before the earliest predicted time
		}
		if exit >= 0 && !math.IsInf(w.Hi, 1) && exit > w.Hi+dt {
			return false // exited after the latest predicted time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAccelToDelay(t *testing.T) {
	c := cfg()
	// Already at/past the line: no delay possible.
	if _, ok := c.MaxAccelToDelay(dynamics.State{P: 5, V: 5}, 1); ok {
		t.Fatal("at-line delay should be infeasible")
	}
	// Zero delay: anything goes.
	if a, ok := c.MaxAccelToDelay(dynamics.State{P: 0, V: 5}, 0); !ok || a != c.Ego.AMax {
		t.Fatalf("zero-delay ceiling = %v, %v", a, ok)
	}
	// Committed fast ego, short delay: full throttle still arrives later
	// than the bound → ceiling is AMax.
	if a, ok := c.MaxAccelToDelay(dynamics.State{P: 0, V: 5}, 0.1); !ok || a != c.Ego.AMax {
		t.Fatalf("trivial ceiling = %v, %v", a, ok)
	}
	// Even max braking arrives too early → infeasible (committed ego very
	// close and fast).
	if _, ok := c.MaxAccelToDelay(dynamics.State{P: 4.5, V: 12}, 5); ok {
		t.Fatal("expected infeasible delay")
	}
	// Interior case: the ceiling must delay arrival to at least tDelay and
	// a slightly larger accel must not.
	ego := dynamics.State{P: 0, V: 8}
	tDelay := 0.8
	a, ok := c.MaxAccelToDelay(ego, tDelay)
	if !ok {
		t.Fatal("expected feasible ceiling")
	}
	arr := dynamics.TimeToReach(c.Geometry.PF-ego.P, ego.V, a, c.Ego.VMax)
	if arr < tDelay-1e-6 {
		t.Fatalf("ceiling %v arrives at %v < %v", a, arr, tDelay)
	}
	if a < c.Ego.AMax {
		arr2 := dynamics.TimeToReach(c.Geometry.PF-ego.P, ego.V, a+0.01, c.Ego.VMax)
		if arr2 >= tDelay {
			t.Fatalf("ceiling %v is not maximal", a)
		}
	}
}

func TestConservativeWindowInsideZone(t *testing.T) {
	c := cfg()
	// C1 already inside the zone: entry now, exit pending.
	est := ExactEstimate(dynamics.State{P: 10, V: 8}, 0)
	w := c.ConservativeWindow(est)
	if w.IsEmpty() || w.Lo != 0 {
		t.Fatalf("in-zone window = %v, want entry at 0", w)
	}
	if w.Hi <= 0 {
		t.Fatalf("in-zone window exit = %v", w.Hi)
	}
}

func TestConservativeWindowExitOrdering(t *testing.T) {
	c := cfg()
	// Degenerate estimate where the naive exit would precede the entry:
	// C1's interval straddles the zone so the farthest position is well
	// inside while the closest is before the front line.
	est := OncomingEstimate{
		P:      interval.New(-1, 14.9),
		V:      interval.New(14, 15),
		PointP: 7, PointV: 14.5, A: 0,
	}
	w := c.ConservativeWindow(est)
	if w.IsEmpty() || w.Hi < w.Lo {
		t.Fatalf("window ordering broken: %v", w)
	}
}

func TestAggressiveWindowEmptyEstimate(t *testing.T) {
	c := cfg()
	est := OncomingEstimate{P: interval.Empty(), V: interval.Empty()}
	if w := c.AggressiveWindow(est); !w.IsEmpty() {
		t.Fatalf("aggressive window for empty estimate = %v", w)
	}
	// Past the zone.
	est = ExactEstimate(dynamics.State{P: 16, V: 10}, 0)
	if w := c.AggressiveWindow(est); !w.IsEmpty() {
		t.Fatalf("aggressive window for passed C1 = %v", w)
	}
}

func TestAggressiveWindowExitOrdering(t *testing.T) {
	c := cfg()
	// A straddling interval can make the naive exit precede the entry; the
	// window must still be well-ordered.
	est := OncomingEstimate{
		P:      interval.New(0, 14.5),
		V:      interval.New(13, 15),
		PointP: 7, PointV: 14, A: 2,
	}
	w := c.AggressiveWindow(est)
	if !w.IsEmpty() && w.Hi < w.Lo {
		t.Fatalf("aggressive window ordering broken: %v", w)
	}
}

func TestValidateMarginAndGeometryBranches(t *testing.T) {
	bad := cfg()
	bad.StopMargin = -0.1
	if bad.Validate() == nil {
		t.Error("negative StopMargin accepted")
	}
	bad = cfg()
	bad.SafetyMargin = -0.1
	if bad.Validate() == nil {
		t.Error("negative SafetyMargin accepted")
	}
	bad = cfg()
	bad.Oncoming.AMin = 1
	if bad.Validate() == nil {
		t.Error("bad oncoming limits accepted")
	}
}
