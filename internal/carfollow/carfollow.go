// Package carfollow is the second case study: car following on a single
// lane — the exact unsafe-set example of paper §II-A ("if the ego vehicle
// C0 and another vehicle Ci are on the same lane, C0 must keep a distance
// gap with Ci to avoid collision: X_u = { x | |p0 − pi| < p_gap }").
//
// It instantiates every ingredient of the framework for this scenario:
// the unsafe set, a sound boundary test with a one-step worst-case
// lookahead, the emergency planner (maximum braking, which from any
// boundary-safe state preserves the gap against a worst-case lead), the
// aggressive unsafe-set estimation (assume the lead will not brake much
// harder than it currently does), and planner-visible features for the NN
// planner.  The information filter (internal/fusion) is reused verbatim —
// the lead vehicle is observed exactly like the oncoming one in the
// left-turn study.
package carfollow

import (
	"fmt"
	"math"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
)

// Config gathers the car-following scenario constants.
type Config struct {
	Ego  dynamics.Limits // envelope of the following vehicle C0
	Lead dynamics.Limits // envelope of the lead vehicle C1

	EgoInit  dynamics.State // C0 at t = 0
	LeadInit dynamics.State // C1 at t = 0 (ahead: LeadInit.P > EgoInit.P)

	PGap float64 // minimum allowed bumper gap [m] (paper's p_gap)
	Goal float64 // ego target position; reaching it ends the episode [m]

	DtC float64 // control period [s]

	// ABuf is the aggressive-estimation buffer: κ_n's unsafe set assumes
	// the lead will not brake harder than a1(t) − ABuf (instead of the
	// physical a_min), mirroring Eq. 8 of the left-turn study.
	ABuf float64
	// MinAssumedBrake floors the aggressive braking assumption so a lead
	// that is currently accelerating is still assumed able to brake
	// moderately [m/s², negative].
	MinAssumedBrake float64

	// SafetyMargin is the slack the monitor demands after a worst-case
	// step before it leaves κ_n in control [m].
	SafetyMargin float64
}

// DefaultConfig returns the car-following defaults used by the tests,
// example, and benchmarks.
func DefaultConfig() Config {
	return Config{
		Ego:             dynamics.Limits{VMin: 0, VMax: 20, AMin: -6, AMax: 2.5},
		Lead:            dynamics.Limits{VMin: 0, VMax: 20, AMin: -6, AMax: 2.5},
		EgoInit:         dynamics.State{P: 0, V: 10},
		LeadInit:        dynamics.State{P: 30, V: 10},
		PGap:            2,
		Goal:            400,
		DtC:             0.05,
		ABuf:            1.5,
		MinAssumedBrake: -2.0,
		SafetyMargin:    0.05,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Ego.Validate(); err != nil {
		return fmt.Errorf("carfollow: ego limits: %w", err)
	}
	if err := c.Lead.Validate(); err != nil {
		return fmt.Errorf("carfollow: lead limits: %w", err)
	}
	if c.PGap <= 0 {
		return fmt.Errorf("carfollow: non-positive gap %v", c.PGap)
	}
	if c.LeadInit.P-c.EgoInit.P <= c.PGap {
		return fmt.Errorf("carfollow: initial gap %v already unsafe", c.LeadInit.P-c.EgoInit.P)
	}
	if c.Goal <= c.EgoInit.P {
		return fmt.Errorf("carfollow: goal %v behind the start", c.Goal)
	}
	if c.DtC <= 0 {
		return fmt.Errorf("carfollow: non-positive control period %v", c.DtC)
	}
	if c.ABuf < 0 {
		return fmt.Errorf("carfollow: negative ABuf %v", c.ABuf)
	}
	if c.MinAssumedBrake >= 0 {
		return fmt.Errorf("carfollow: MinAssumedBrake %v must be negative", c.MinAssumedBrake)
	}
	if c.SafetyMargin < 0 {
		return fmt.Errorf("carfollow: negative safety margin")
	}
	return nil
}

// LeadEstimate is the planner-visible knowledge about the lead vehicle —
// sound intervals plus point estimates, filled from the information filter.
type LeadEstimate struct {
	P interval.Interval // possible lead positions
	V interval.Interval // possible lead velocities

	PointP, PointV float64 // best point estimates
	A              float64 // best current lead acceleration estimate
}

// ExactLead builds an estimate from perfectly known lead state (tests and
// the perfect-information ablation).
func ExactLead(s dynamics.State, a float64) LeadEstimate {
	return LeadEstimate{
		P: interval.Point(s.P), V: interval.Point(s.V),
		PointP: s.P, PointV: s.V, A: a,
	}
}

// InUnsafeSet implements the paper's §II-A unsafe set for the worst case
// of the estimate: the gap to the *closest possible* lead position is
// below PGap.
func (c *Config) InUnsafeSet(ego dynamics.State, lead LeadEstimate) bool {
	if lead.P.IsEmpty() {
		return false
	}
	return lead.P.Lo-ego.P < c.PGap
}

// Slack is the sound safety margin of the classic stopping-distance
// criterion: even if the lead brakes at its physical limit from its
// worst-case (closest, slowest) state, an ego that starts braking at
// a_min next step keeps the gap.  Positive slack = that criterion holds
// with room to spare.
func (c *Config) Slack(ego dynamics.State, lead LeadEstimate) float64 {
	if lead.P.IsEmpty() || lead.V.IsEmpty() {
		return math.Inf(1) // no lead known: unconstrained
	}
	dbEgo := dynamics.StopDistance(ego.V, c.Ego.AMin)
	dbLead := dynamics.StopDistance(lead.V.Lo, c.Lead.AMin)
	return (lead.P.Lo + dbLead) - (ego.P + dbEgo) - c.PGap
}

// slackAfterWorstStep evaluates the slack after one control step in which
// the ego applies accel a and the lead behaves worst-case (maximum
// braking).  It is the direct, discrete evaluation of the boundary-safe-
// set condition (paper Eq. 3) for this scenario.
func (c *Config) slackAfterWorstStep(ego dynamics.State, lead LeadEstimate, a float64) float64 {
	nextEgo, _ := dynamics.Step(ego, a, c.DtC, c.Ego)
	// Worst-case lead after dt: closest position advancing at its slowest,
	// velocity dropping at a_min.
	vLo := lead.V.Lo + c.Lead.AMin*c.DtC
	if vLo < c.Lead.VMin {
		vLo = c.Lead.VMin
	}
	pLo := lead.P.Lo + dynamics.DistanceAfter(c.DtC, lead.V.Lo, c.Lead.AMin, c.Lead.VMin, c.Lead.VMax)
	nextLead := LeadEstimate{P: interval.Point(pLo), V: interval.Point(vLo)}
	return c.Slack(nextEgo, nextLead)
}

// InBoundarySafeSet reports whether some admissible ego acceleration could
// push the state into (one-step reach of) the unsafe region: the monitor
// hands control to κ_e exactly then.  Because slack is monotone decreasing
// in the ego's acceleration, checking the maximal acceleration suffices.
func (c *Config) InBoundarySafeSet(ego dynamics.State, lead LeadEstimate) bool {
	if lead.P.IsEmpty() {
		return false
	}
	return c.slackAfterWorstStep(ego, lead, c.Ego.AMax) < c.SafetyMargin
}

// EmergencyAccel is κ_e for car following: maximum braking.  From any
// state with nonnegative slack, braking at a_min keeps the gap ≥ PGap
// against every admissible lead behaviour (both vehicles' stopping points
// preserve the ordering by the slack definition), so Eq. 4 holds.
func (c *Config) EmergencyAccel(ego dynamics.State) float64 {
	if ego.V <= 0 {
		return 0
	}
	return c.Ego.AMin
}

// AggressiveAssumedBrake returns the lead braking assumption fed to κ_n:
// min(a1(t) − ABuf, MinAssumedBrake), clamped at the physical a_min.  The
// lead "probably" won't brake much harder than it currently does.
func (c *Config) AggressiveAssumedBrake(leadA float64) float64 {
	a := leadA - c.ABuf
	if a > c.MinAssumedBrake {
		a = c.MinAssumedBrake
	}
	if a < c.Lead.AMin {
		a = c.Lead.AMin
	}
	return a
}

// RequiredGap returns the headway the stopping-distance criterion demands
// at the given speeds under the given lead braking assumption.
func (c *Config) RequiredGap(egoV, leadV, assumedBrake float64) float64 {
	dbEgo := dynamics.StopDistance(egoV, c.Ego.AMin)
	dbLead := dynamics.StopDistance(leadV, assumedBrake)
	g := dbEgo - dbLead
	if g < 0 {
		return 0
	}
	return g
}

// Violation reports whether the true states violate the unsafe set — the
// scored safety outcome of an episode.
func (c *Config) Violation(ego, lead dynamics.State) bool {
	return lead.P-ego.P < c.PGap
}

// ReachedGoal reports whether the ego has covered the episode distance.
func (c *Config) ReachedGoal(ego dynamics.State) bool { return ego.P >= c.Goal }

// FeatureCount is the NN-planner input dimension for car following.
const FeatureCount = 5

// noLeadGap is the sentinel gap feature used when no lead is known.
const noLeadGap = 1e3

// Features assembles the 5-dimensional NN-planner input for car following:
// (gap to worst-case lead, ego speed, lead speed estimate, lead accel
// estimate, required gap under the planner's braking assumption).
func (c *Config) Features(ego dynamics.State, lead LeadEstimate, assumedBrake float64) []float64 {
	gap := noLeadGap
	if !lead.P.IsEmpty() {
		gap = lead.P.Lo - ego.P - c.PGap
	}
	return []float64{
		gap,
		ego.V,
		lead.PointV,
		lead.A,
		c.RequiredGap(ego.V, lead.PointV, assumedBrake),
	}
}

// FeatureBox returns a fresh interval feature box; see FeatureBoxInto.
func (c *Config) FeatureBox(ego dynamics.State, sound LeadEstimate, assumedBrake float64) []interval.Interval {
	dst := make([]interval.Interval, FeatureCount)
	c.FeatureBoxInto(dst, ego, sound, assumedBrake)
	return dst
}

// FeatureBoxInto is the interval twin of Features: it writes into dst
// (length ≥ FeatureCount) a box containing Features(ego, e, assumedBrake)
// for every lead estimate e whose P/V intervals lie inside the sound
// estimate's, whose PointV lies inside sound.V, and whose A equals
// sound.A — in particular for the fused estimate the planner sees, which
// the filter keeps inside the sound set.  The braking assumption is a
// function of the shared A, so the caller passes the same value it feeds
// Features.
//
// The gap feature is linear in the estimate's lower position bound; the
// lead-speed feature is exactly the sound velocity interval; the
// required-gap feature brackets because RequiredGap is monotone
// nonincreasing in the lead speed (a faster lead stops farther ahead).
// A degenerate point estimate reproduces Features bitwise.  An empty
// sound position interval means every consistent estimate has an empty
// one too, so the gap feature is exactly the no-lead sentinel; an empty
// velocity interval falls back to the point estimate carried alongside.
func (c *Config) FeatureBoxInto(dst []interval.Interval, ego dynamics.State, sound LeadEstimate, assumedBrake float64) {
	if sound.P.IsEmpty() {
		dst[0] = interval.Point(noLeadGap)
	} else {
		dst[0] = interval.New(sound.P.Lo-ego.P-c.PGap, sound.P.Hi-ego.P-c.PGap)
	}
	dst[1] = interval.Point(ego.V)
	vHull := sound.V
	if vHull.IsEmpty() {
		vHull = interval.Point(sound.PointV)
	}
	dst[2] = vHull
	dst[3] = interval.Point(sound.A)
	gLo := c.RequiredGap(ego.V, vHull.Hi, assumedBrake)
	gHi := c.RequiredGap(ego.V, vHull.Lo, assumedBrake)
	dst[4] = interval.New(math.Min(gLo, gHi), math.Max(gLo, gHi))
}
