// Package leftturn implements the paper's case study (§IV): an unprotected
// left turn where the ego vehicle C0 must cross a conflict zone that an
// oncoming vehicle C1 also traverses.
//
// Both vehicles are parameterized by arc length along their own fixed path
// with the conflict zone at [PF, PB] (front line, back line).  The paper
// states C1's initial world position as 50.5–60 m with the zone at [5, 15];
// Eq. 7 is only consistent if C1 is measured on a mirrored axis, so we use
// C1's travel coordinate c1 = 20 − p1_world, which maps the zone to [5, 15]
// for C1 as well and its start to −30.5 … −40 (see DESIGN.md §3).
//
// The package provides the pure scenario mathematics: slack (Eq. 5),
// passing-time windows (the projected ego window, the conservative Eq. 7
// estimate, and the aggressive Eq. 8 estimate), the unsafe set (Eq. 6), the
// boundary safe set (§IV), and the emergency planner (§IV).  All windows
// are expressed in time-from-now (relative) form; intersection tests are
// unaffected by this choice of origin.
package leftturn

import (
	"fmt"
	"math"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
)

// Geometry locates the conflict zone on each vehicle's path coordinate.
type Geometry struct {
	PF float64 // front line of the unsafe area [m]
	PB float64 // back line of the unsafe area [m], PB > PF
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.PB <= g.PF {
		return fmt.Errorf("leftturn: back line %v must exceed front line %v", g.PB, g.PF)
	}
	return nil
}

// Config gathers every scenario constant.
type Config struct {
	Geometry Geometry

	Ego      dynamics.Limits // physical envelope of C0
	Oncoming dynamics.Limits // physical envelope of C1

	EgoInit      dynamics.State // C0 state at t = 0
	OncomingInit dynamics.State // C1 state at t = 0 (mirrored coordinate)

	DtC float64 // control period Δt_c [s]

	// ABuf and VBuf are the user-defined buffers of the aggressive
	// unsafe-set estimation (paper Eq. 8).
	ABuf, VBuf float64

	// StopMargin is the distance before the front line that the emergency
	// planner aims its stop at.  The paper's κ_e targets PF exactly, which
	// is only safe in continuous time; in the Δt_c-discretized system the
	// last braking step can overshoot the asymptotic stop point by up to
	// ¼·|AMin|·Δt_c², so κ_e leaves this margin.
	StopMargin float64
	// SafetyMargin widens the boundary-safe-set slack band by a constant,
	// so that when the runtime monitor first hands control to κ_e the
	// remaining slack is at least SafetyMargin rather than merely
	// nonnegative — which is what absorbs the discretization error above.
	SafetyMargin float64
}

// DefaultConfig returns the constants used throughout the evaluation.
// Values stated by the paper (zone [5,15] m, p0(0) = −30 m, Δt_c = 0.05 s,
// C1 start distance) are taken verbatim; the remaining constants are the
// documented defaults recorded in EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Geometry: Geometry{PF: 5, PB: 15},
		Ego:      dynamics.Limits{VMin: 0, VMax: 12, AMin: -6, AMax: 3},
		Oncoming: dynamics.Limits{VMin: 0, VMax: 15, AMin: -6, AMax: 3},
		EgoInit:  dynamics.State{P: -30, V: 8},
		// Mirrored C1 start: paper's p1(0) ∈ {50.5+0.5j} ↦ c1(0) = 20−p1(0);
		// the default is the sweep's midpoint, overridden per simulation.
		OncomingInit: dynamics.State{P: -35, V: 8},
		DtC:          0.05,
		ABuf:         0.5,
		VBuf:         1.0,
		StopMargin:   0.10,
		SafetyMargin: 0.05,
	}
}

// Validate checks the full configuration.
func (c *Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Ego.Validate(); err != nil {
		return fmt.Errorf("leftturn: ego limits: %w", err)
	}
	if err := c.Oncoming.Validate(); err != nil {
		return fmt.Errorf("leftturn: oncoming limits: %w", err)
	}
	if c.DtC <= 0 {
		return fmt.Errorf("leftturn: non-positive control period %v", c.DtC)
	}
	if c.ABuf < 0 || c.VBuf < 0 {
		return fmt.Errorf("leftturn: negative aggressive buffer (ABuf=%v, VBuf=%v)", c.ABuf, c.VBuf)
	}
	if c.StopMargin < 0 || c.SafetyMargin < 0 {
		return fmt.Errorf("leftturn: negative margin (StopMargin=%v, SafetyMargin=%v)", c.StopMargin, c.SafetyMargin)
	}
	return nil
}

// BrakingDistance returns d_b = −v²/(2·a_min) for the ego vehicle.
func (c *Config) BrakingDistance(v float64) float64 {
	return dynamics.StopDistance(v, c.Ego.AMin)
}

// Slack implements paper Eq. 5: how much stopping margin the ego has before
// the front line.  Nonnegative slack means C0 can still stop before the
// zone; negative slack means it is committed to entering (or is inside).
func (c *Config) Slack(ego dynamics.State) float64 {
	switch {
	case ego.P <= c.Geometry.PF:
		return c.Geometry.PF - c.BrakingDistance(ego.V) - ego.P
	case ego.P <= c.Geometry.PB:
		return ego.P - c.Geometry.PB // ≤ 0 while inside the zone
	default:
		return math.Inf(1)
	}
}

// EgoWindow returns the projected passing-time window of the ego vehicle
// over the conflict zone at its *current* velocity (paper Eq. for
// [τ0,min, τ0,max]), in time-from-now form.  A stationary ego short of the
// zone yields an unbounded-entry window that can never intersect; a
// stationary ego inside the zone yields [0, +Inf).  Once past the back
// line the window is empty: no conflict is possible anymore.
func (c *Config) EgoWindow(ego dynamics.State) interval.Interval {
	g := c.Geometry
	switch {
	case ego.P <= g.PF:
		if ego.V <= 0 {
			return interval.Empty() // never arrives at current velocity
		}
		return interval.New((g.PF-ego.P)/ego.V, (g.PB-ego.P)/ego.V)
	case ego.P <= g.PB:
		if ego.V <= 0 {
			return interval.New(0, math.Inf(1)) // stuck inside the zone
		}
		return interval.New(0, (g.PB-ego.P)/ego.V)
	default:
		return interval.Empty()
	}
}

// OncomingEstimate is what the planner knows about C1 at decision time —
// sound intervals from the information filter plus point estimates for the
// aggressive computation.
type OncomingEstimate struct {
	P interval.Interval // possible positions (mirrored coordinate)
	V interval.Interval // possible velocities

	PointP, PointV float64 // best point estimates
	A              float64 // best current acceleration estimate
}

// ExactEstimate builds an estimate from perfectly known C1 state, used in
// tests and in the perfect-information ablation.
func ExactEstimate(s dynamics.State, a float64) OncomingEstimate {
	return OncomingEstimate{
		P:      interval.Point(s.P),
		V:      interval.Point(s.V),
		PointP: s.P,
		PointV: s.V,
		A:      a,
	}
}

// ConservativeWindow implements paper Eq. 7 generalized to interval
// knowledge: the earliest time C1 could reach the front line (closest
// position, highest speed, maximum acceleration, top speed) and the latest
// time it could clear the back line (farthest position, lowest speed,
// maximum braking, velocity floor).  The true passing window is contained
// in the result whenever the estimate is sound.
func (c *Config) ConservativeWindow(est OncomingEstimate) interval.Interval {
	if est.P.IsEmpty() || est.V.IsEmpty() {
		return interval.Empty()
	}
	if est.P.Lo >= c.Geometry.PB {
		return interval.Empty() // surely past the zone
	}
	tEntry, tExit := c.conservativeTimes(est)
	if math.IsInf(tEntry, 1) {
		// Even flat-out C1 cannot reach the zone (cannot happen with
		// AMax > 0 and finite distance, but guard anyway).
		return interval.Empty()
	}
	return interval.New(tEntry, tExit)
}

// conservativeTimes computes Eq. 7's raw entry/exit pair (exit clamped to
// the entry) without the emptiness handling.  Both times are monotone
// nonincreasing in the estimate's position and velocity endpoints, which
// is what FeatureBoxInto's corner bracketing relies on.
func (c *Config) conservativeTimes(est OncomingEstimate) (tEntry, tExit float64) {
	g, lim := c.Geometry, c.Oncoming
	tEntry = dynamics.TimeToReach(g.PF-est.P.Hi, est.V.Hi, lim.AMax, lim.VMax)
	tExit = dynamics.TimeToCover(g.PB-est.P.Lo, est.V.Lo, lim.AMin, lim.VMin, lim.VMax)
	if tExit < tEntry {
		tExit = tEntry
	}
	return tEntry, tExit
}

// AggressiveWindow implements paper Eq. 8: instead of physical limits it
// assumes C1 stays within ±ABuf of its current acceleration and ±VBuf of
// its current velocity, yielding a much more compact — deliberately
// unsound — window for the embedded NN planner.  Safety is unaffected
// because the runtime monitor keeps using the conservative window.
//
// The buffered dynamics are evaluated at the estimate's interval endpoints
// (entry from the closest/fastest corner, exit from the farthest/slowest),
// so communication disturbance — which widens the estimate — widens the
// aggressive window too, degrading efficiency gracefully rather than
// silently betting harder.
func (c *Config) AggressiveWindow(est OncomingEstimate) interval.Interval {
	if est.P.IsEmpty() || est.V.IsEmpty() {
		return interval.Empty()
	}
	if est.P.Lo >= c.Geometry.PB {
		return interval.Empty()
	}
	tEntry, tExit := c.aggressiveTimes(est)
	if math.IsInf(tEntry, 1) {
		// Under the buffered assumption C1 never arrives: treat as no
		// conflict (this is exactly the aggressive bet).
		return interval.Empty()
	}
	return interval.New(tEntry, tExit)
}

// aggressiveTimes computes Eq. 8's raw entry/exit pair (exit clamped to
// the entry) without the emptiness handling.  The buffered accelerations
// aFast/aSlow depend only on the point acceleration estimate, so for a
// fixed est.A both times are monotone nonincreasing in the position and
// velocity endpoints — the bracketing property FeatureBoxInto relies on
// (the entry's velocity cap and the exit's velocity floor move *with*
// their endpoints, preserving the ordering).
func (c *Config) aggressiveTimes(est OncomingEstimate) (tEntry, tExit float64) {
	g, lim := c.Geometry, c.Oncoming
	vEntry := est.V.Hi
	aFast := min(est.A+c.ABuf, lim.AMax)
	vFast := math.Min(vEntry+c.VBuf, lim.VMax)
	tEntry = dynamics.TimeToReach(g.PF-est.P.Hi, vEntry, aFast, vFast)
	vExit := est.V.Lo
	aSlow := max(est.A-c.ABuf, lim.AMin)
	vSlow := math.Max(vExit-c.VBuf, lim.VMin)
	tExit = dynamics.TimeToCover(g.PB-est.P.Lo, vExit, aSlow, vSlow, lim.VMax)
	if tExit < tEntry {
		tExit = tEntry
	}
	return tEntry, tExit
}

// InUnsafeSet implements paper Eq. 6 on the estimated oncoming window:
// the state is unsafe when the ego can no longer stop before the zone
// (negative slack) and the passing windows intersect.
func (c *Config) InUnsafeSet(ego dynamics.State, oncoming interval.Interval) bool {
	if !(c.Slack(ego) < 0) {
		return false
	}
	return c.EgoWindow(ego).Intersects(oncoming)
}

// BoundaryThreshold returns the slack bound of the boundary safe set:
// (v0·Δt_c + ½·a_max·Δt_c²)·(1 − a_max/a_min).  States with slack in
// [0, threshold) may reach negative slack within one control step under
// some admissible input.
func (c *Config) BoundaryThreshold(v0 float64) float64 {
	return (v0*c.DtC + 0.5*c.Ego.AMax*c.DtC*c.DtC) * (1 - c.Ego.AMax/c.Ego.AMin)
}

// InBoundarySafeSet implements the paper's X_b for this scenario: slack is
// nonnegative but below the one-step threshold (widened by SafetyMargin,
// see Config), and the windows intersect.
func (c *Config) InBoundarySafeSet(ego dynamics.State, oncoming interval.Interval) bool {
	s := c.Slack(ego)
	if s < 0 || s >= c.BoundaryThreshold(ego.V)+c.SafetyMargin {
		return false
	}
	return c.EgoWindow(ego).Intersects(oncoming)
}

// StopOvershoot returns the worst-case distance by which the
// Δt_c-discretized integrator overshoots a continuous critical stop:
// the final braking step applies the velocity-clamped deceleration −v/Δt_c
// for the whole period and travels v·Δt_c/2 instead of v²/(2|a_min|),
// an excess of at most |a_min|·Δt_c²/8 (maximized at v = |a_min|·Δt_c/2).
// κ_e and the emergency-one-step checker both use this bound: a state
// whose slack is below it cannot be guaranteed to stop short of the front
// line in discrete time, however hard it brakes.
func (c *Config) StopOvershoot() float64 {
	return -c.Ego.AMin * c.DtC * c.DtC / 8
}

// EmergencyAccel implements the scenario's emergency planner κ_e.  The
// paper switches on position (brake before the front line, escape after);
// here the switch is on *feasibility*, which is what Eq. 4 actually needs:
//
//   - stoppable (short of the line, with enough slack to absorb the
//     discretization overshoot): brake just hard enough to stop
//     StopMargin before PF;
//   - committed (already inside the zone, negative slack, or slack below
//     StopOvershoot — where the discretized stop can land past the front
//     line at crawl speed, the worst state of all): escape at full
//     acceleration — braking a committed vehicle would park it inside
//     the conflict zone, the one outcome that must never happen.
//
// The StopOvershoot cut matters only on the knife edge: the runtime
// monitor hands off with at least SafetyMargin of slack, so a fault-free
// episode never engages κ_e below it.  Fault containment does — the
// guard substitutes κ_e at arbitrary reachable states, including
// mid-dash states whose slack has just crossed zero — and braking there
// must not be allowed to stop millimetres past the line.
//
// The output is clamped to the ego's envelope so the planner remains
// admissible from any state.
func (c *Config) EmergencyAccel(ego dynamics.State) float64 {
	g := c.Geometry
	if ego.P > g.PF {
		return c.Ego.AMax
	}
	if ego.V <= 0 {
		return 0 // already stopped short of the zone: hold
	}
	if c.Slack(ego) <= c.StopOvershoot() {
		return c.Ego.AMax // committed: minimize time spent in the zone
	}
	var a float64
	gap := g.PF - c.StopMargin - ego.P
	if gap <= 0 {
		a = c.Ego.AMin
	} else {
		a = -ego.V * ego.V / (2 * gap)
	}
	return max(c.Ego.AMin, min(c.Ego.AMax, a))
}

// MinAccelToClear returns the smallest constant acceleration that lets the
// ego cover the distance to the back line within the next tWindow seconds
// (clearing the zone before the oncoming vehicle can possibly arrive).  It
// reports ok = false when even full acceleration is insufficient.  The
// runtime monitor uses this as a commitment guard: once the ego's slack is
// negative it is committed to crossing, and constraining the NN planner's
// output to at least this floor preserves the pass-before-C1 invariant that
// justified committing (see internal/monitor).
func (c *Config) MinAccelToClear(ego dynamics.State, tWindow float64) (float64, bool) {
	d := c.Geometry.PB - ego.P
	if d <= 0 {
		return c.Ego.AMin, true // already past the back line
	}
	if tWindow <= 0 {
		return 0, false
	}
	if math.IsInf(tWindow, 1) {
		return c.Ego.AMin, true
	}
	reach := func(a float64) float64 {
		return dynamics.DistanceAfter(tWindow, ego.V, a, c.Ego.VMin, c.Ego.VMax)
	}
	if reach(c.Ego.AMax) < d {
		return 0, false
	}
	if reach(c.Ego.AMin) >= d {
		return c.Ego.AMin, true
	}
	lo, hi := c.Ego.AMin, c.Ego.AMax // reach(lo) < d ≤ reach(hi)
	for i := 0; i < 60; i++ {
		mid := lo + (hi-lo)/2
		if reach(mid) >= d {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// MaxAccelToDelay returns the largest constant acceleration that keeps the
// ego from reaching the front line for at least tDelay seconds.  It reports
// ok = false when even maximum braking arrives too early (only possible for
// a committed ego, since a stoppable one never arrives under full braking).
// The runtime monitor uses this as the pass-after commitment guard — the
// dual of MinAccelToClear.
func (c *Config) MaxAccelToDelay(ego dynamics.State, tDelay float64) (float64, bool) {
	d := c.Geometry.PF - ego.P
	if d <= 0 {
		return c.Ego.AMax, false // already at/past the line
	}
	if tDelay <= 0 {
		return c.Ego.AMax, true
	}
	arrival := func(a float64) float64 {
		return dynamics.TimeToReach(d, ego.V, a, c.Ego.VMax)
	}
	if arrival(c.Ego.AMin) < tDelay {
		return c.Ego.AMin, false
	}
	if arrival(c.Ego.AMax) >= tDelay {
		return c.Ego.AMax, true
	}
	lo, hi := c.Ego.AMin, c.Ego.AMax // arrival(lo) ≥ tDelay > arrival(hi)
	for i := 0; i < 60; i++ {
		mid := lo + (hi-lo)/2
		if arrival(mid) >= tDelay {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// ReachedTarget reports whether the ego vehicle has completed the turn —
// the target set X_t is every state with the ego past the back line.
func (c *Config) ReachedTarget(ego dynamics.State) bool {
	return ego.P > c.Geometry.PB
}

// InZone reports whether a path position lies inside the conflict zone.
func (c *Config) InZone(p float64) bool {
	return p >= c.Geometry.PF && p <= c.Geometry.PB
}

// Collision reports whether both vehicles occupy the conflict zone
// simultaneously — the safety violation of the case study.
func (c *Config) Collision(ego, oncoming dynamics.State) bool {
	return c.InZone(ego.P) && c.InZone(oncoming.P)
}

// FeatureTimeCap bounds the passing-window features fed to the NN planner;
// +Inf window edges (no conflict possible) saturate here.
const FeatureTimeCap = 60

// FeatureCount is the width of the NN planner input vector.
const FeatureCount = 5

// Features assembles the paper's 5-dimensional NN planner input
// (t, p0, v0, τ1,min, τ1,max).  An empty window is encoded as a window that
// starts and ends at the cap, i.e. "conflict infinitely far away".
func Features(t float64, ego dynamics.State, oncoming interval.Interval) []float64 {
	dst := make([]float64, FeatureCount)
	FeaturesInto(dst, t, ego, oncoming)
	return dst
}

// FeaturesInto writes the feature vector into dst (length ≥ FeatureCount)
// without allocating; hot paths reuse one scratch buffer across calls.
func FeaturesInto(dst []float64, t float64, ego dynamics.State, oncoming interval.Interval) {
	tMin, tMax := float64(FeatureTimeCap), float64(FeatureTimeCap)
	if !oncoming.IsEmpty() {
		tMin = min(oncoming.Lo, FeatureTimeCap)
		tMax = min(oncoming.Hi, FeatureTimeCap)
	}
	dst[0], dst[1], dst[2], dst[3], dst[4] = t, ego.P, ego.V, tMin, tMax
}

// FeatureBoxInto is the interval twin of FeaturesInto: it writes into dst
// (length ≥ FeatureCount) a box guaranteed to contain the feature vector
// Features(t, ego, W(e)) for *every* oncoming estimate e whose position and
// velocity intervals lie inside the sound estimate's and whose point
// acceleration equals sound.A — in particular for the fused (Kalman-joined)
// estimate the planner actually sees, which the filter keeps inside the
// sound set by construction.  W is the aggressive window (Eq. 8) when
// aggressive is set and the conservative one (Eq. 7) otherwise, matching
// which window the certified agent feeds its planner.
//
// Time, ego position, and ego velocity are exactly known, so the first
// three features are point intervals.  The window features are bracketed
// at two corner estimates — nearest/fastest (entry's earliest corner) and
// farthest/slowest (exit's latest corner): both window times are monotone
// nonincreasing in the estimate's position/velocity endpoints, the
// FeatureTimeCap saturation is monotone, and the empty-window encoding
// (cap, cap) is folded in whenever some estimate in the sound set can
// already have passed the zone (sound.P.Hi ≥ PB) or never arrive (an
// infinite corner entry saturates to the cap on the far side).  The box is
// always finite, so it is a valid ibp input.
func (c *Config) FeatureBoxInto(dst []interval.Interval, t float64, ego dynamics.State, sound OncomingEstimate, aggressive bool) {
	dst[0] = interval.Point(t)
	dst[1] = interval.Point(ego.P)
	dst[2] = interval.Point(ego.V)
	const tcap = float64(FeatureTimeCap)
	if sound.P.IsEmpty() || sound.V.IsEmpty() || sound.P.Lo >= c.Geometry.PB {
		// Every estimate inside the sound set yields an empty window.
		dst[3], dst[4] = interval.Point(tcap), interval.Point(tcap)
		return
	}
	near := OncomingEstimate{
		P: interval.Point(sound.P.Hi), V: interval.Point(sound.V.Hi),
		PointP: sound.P.Hi, PointV: sound.V.Hi, A: sound.A,
	}
	far := OncomingEstimate{
		P: interval.Point(sound.P.Lo), V: interval.Point(sound.V.Lo),
		PointP: sound.P.Lo, PointV: sound.V.Lo, A: sound.A,
	}
	var enN, exN, enF, exF float64
	if aggressive {
		enN, exN = c.aggressiveTimes(near)
		enF, exF = c.aggressiveTimes(far)
	} else {
		enN, exN = c.conservativeTimes(near)
		enF, exF = c.conservativeTimes(far)
	}
	f3lo, f3hi := min(enN, tcap), min(enF, tcap)
	f4lo, f4hi := min(exN, tcap), min(exF, tcap)
	if sound.P.Hi >= c.Geometry.PB {
		// The near corner has surely passed the zone: the empty-window
		// features (cap, cap) are reachable inside the sound set.
		f3hi, f4hi = tcap, tcap
	}
	dst[3] = interval.New(math.Min(f3lo, f3hi), math.Max(f3lo, f3hi))
	dst[4] = interval.New(math.Min(f4lo, f4hi), math.Max(f4lo, f4hi))
}
