package sim

import (
	"fmt"
	"math"

	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
)

// StepInfo is the ground-truth plus estimate payload handed to invariant
// checkers once per control step (per observed vehicle in the
// multi-vehicle scenario).  Each stepper fills one StepInfo it owns and
// passes a pointer to it, so checking neither copies the payload per
// checker nor allocates.
type StepInfo struct {
	// T is the simulation time of the step [s].
	T float64
	// Vehicle indexes the observed vehicle (always 0 in the single-vehicle
	// scenarios; the track index in RunMulti).
	Vehicle int

	// Ego is the true ego state at decision time.
	Ego dynamics.State
	// Other is the true state of the observed vehicle (the oncoming car in
	// the left-turn scenario, the lead in car following).
	Other dynamics.State
	// OtherA is the observed vehicle's current behavioural acceleration.
	OtherA float64

	// Est is the fusion filter's output for this vehicle at time T.
	Est fusion.Estimate

	// Accel is the acceleration the agent commanded this step.
	Accel float64
	// Emergency is true when the emergency planner κ_e produced Accel.
	Emergency bool

	// GuardState is the guard's degradation state after this step
	// ("nominal", "degraded", "emergency-only"); empty when no guard is
	// configured.  GuardFault names the contained planner fault ("panic",
	// "deadline", "wall-clock", "non-finite", "range") and GuardFallback
	// the substitute command source ("last-good", "emergency"); both are
	// empty on clean pass-through steps.
	GuardState    string
	GuardFault    string
	GuardFallback string
}

// Invariant is a pluggable runtime check threaded through the simulation
// step loop.  The same checkers run in unit tests, the fuzz targets, and
// the Monte-Carlo campaign engine (internal/campaign), so a property is
// stated once and enforced everywhere.
//
// Implementations must be stateless (or internally synchronized): campaign
// runners share one checker across all worker goroutines, and a checker is
// invoked for many interleaved episodes.
type Invariant interface {
	// Name identifies the invariant in violation reports and campaign
	// counters.
	Name() string
	// CheckStep inspects one control step; a non-nil error aborts the
	// episode with a *ViolationError.  s is owned by the stepper and
	// overwritten on its next step: read it, never retain or modify it.
	CheckStep(s *StepInfo) error
	// CheckEpisode inspects a finished episode's result.
	CheckEpisode(r *Result) error
}

// ViolationError reports an invariant violation.  Episode runners wrap it
// with seed context; the campaign runner unwraps it (errors.As) to count
// violations by invariant name.
type ViolationError struct {
	// Invariant is the Name of the violated checker.
	Invariant string
	// T is the simulation time of the violating step; NaN for
	// episode-level violations.
	T float64
	// Detail describes the violation.
	Detail string
}

// Error implements error.
func (e *ViolationError) Error() string {
	if math.IsNaN(e.T) {
		return fmt.Sprintf("invariant %s violated: %s", e.Invariant, e.Detail)
	}
	return fmt.Sprintf("invariant %s violated at t=%.3f: %s", e.Invariant, e.T, e.Detail)
}

// stepViolation builds a step-level ViolationError.
func stepViolation(name string, s *StepInfo, format string, args ...any) error {
	return &ViolationError{Invariant: name, T: s.T, Detail: fmt.Sprintf(format, args...)}
}

// episodeViolation builds an episode-level ViolationError.
func episodeViolation(name, format string, args ...any) error {
	return &ViolationError{Invariant: name, T: math.NaN(), Detail: fmt.Sprintf(format, args...)}
}

// StepOnly provides a no-op CheckEpisode; embed it in checkers that only
// inspect steps.
type StepOnly struct{}

// CheckEpisode implements Invariant.
func (StepOnly) CheckEpisode(*Result) error { return nil }

// EpisodeOnly provides a no-op CheckStep; embed it in checkers that only
// inspect finished episodes.
type EpisodeOnly struct{}

// CheckStep implements Invariant.
func (EpisodeOnly) CheckStep(*StepInfo) error { return nil }

// NoCollision asserts the paper's headline guarantee: a compound planner
// never collides, so η ≥ 0 in every episode.  Attach it only to agents
// that carry the guarantee (basic or ultimate designs, not pure κ_n).
type NoCollision struct{ EpisodeOnly }

// Name implements Invariant.
func (NoCollision) Name() string { return "no-collision" }

// CheckEpisode implements Invariant.
func (n NoCollision) CheckEpisode(r *Result) error {
	if r.Collided || r.Eta < 0 {
		return episodeViolation(n.Name(), "episode collided (η = %v) after %d steps", r.Eta, r.Steps)
	}
	return nil
}

// SoundEstimate asserts the information-filter soundness contract: the
// sound interval pair (Estimate.SoundP/SoundV) contains the true state of
// the observed vehicle at every step.  This holds unconditionally — the
// Kalman component only sharpens the *fused* pair — so the checker is
// valid for every design, including ablations.
type SoundEstimate struct{ StepOnly }

// Name implements Invariant.
func (SoundEstimate) Name() string { return "sound-estimate" }

// CheckStep implements Invariant.
func (c SoundEstimate) CheckStep(s *StepInfo) error {
	if !s.Est.SoundP.Contains(s.Other.P) {
		return stepViolation(c.Name(), s, "vehicle %d: true position %v outside sound interval %v",
			s.Vehicle, s.Other.P, s.Est.SoundP)
	}
	if !s.Est.SoundV.Contains(s.Other.V) {
		return stepViolation(c.Name(), s, "vehicle %d: true velocity %v outside sound interval %v",
			s.Vehicle, s.Other.V, s.Est.SoundV)
	}
	return nil
}

// DefaultSlackTolerance absorbs the ~1 ulp discrepancy between the
// emergency planner's constant-deceleration stop computation and the
// integrator's step arithmetic.
const DefaultSlackTolerance = 1e-6

// EmergencyOneStep asserts the Eq. 4 one-step property of the emergency
// planner in the left-turn scenario: whenever κ_e commands a *stoppable*
// ego (short of the front line with more than StopOvershoot of slack),
// executing the command for one control step must keep the slack
// nonnegative — κ_e never burns the stopping margin it exists to protect.
// The committed branch (slack at or below the overshoot bound: escape at
// full throttle) is covered by NoCollision instead, since its correctness
// argument is window disjointness, not slack.
//
// Two discretization details make the discrete form differ from the
// continuous Eq. 4.  First, the integrator clamps velocity at VMin: when
// κ_e brakes to a stop from v < |AMin|·Δt_c it applies the milder
// deceleration −v/Δt_c for the whole step and travels v·Δt_c/2 instead of
// the continuous stopping distance v²/(2|AMin|), an overshoot of at most
// |AMin|·Δt_c²/8 (maximized at v = |AMin|·Δt_c/2).  The checker budgets
// exactly that bound on top of Tol.  Second, Slack switches to the
// inside-the-zone branch at PF, so the post-step state is measured with
// the un-branched stopping-margin formula — a micro-overshoot past the
// front line must read as millimetres, not as the zone depth.
//
// A deliberately broken κ_e — braking too late, or accelerating from the
// boundary safe set — trips this checker on the first bad step.
type EmergencyOneStep struct {
	StepOnly
	Cfg leftturn.Config
	// Tol is the slack tolerance; 0 selects DefaultSlackTolerance.
	Tol float64
}

// Name implements Invariant.
func (EmergencyOneStep) Name() string { return "emergency-one-step" }

// CheckStep implements Invariant.
func (c EmergencyOneStep) CheckStep(s *StepInfo) error {
	if !s.Emergency {
		return nil
	}
	slack := c.Cfg.Slack(s.Ego)
	if slack <= c.Cfg.StopOvershoot() || math.IsInf(slack, 1) {
		return nil // committed (escape) or already past the zone
	}
	tol := c.Tol
	if tol == 0 {
		tol = DefaultSlackTolerance
	}
	// Admissible stop-step overshoot of the VMin-clamping integrator.
	tol += -c.Cfg.Ego.AMin * c.Cfg.DtC * c.Cfg.DtC / 8
	next, _ := dynamics.Step(s.Ego, s.Accel, c.Cfg.DtC, c.Cfg.Ego)
	// Un-branched stopping margin: unlike Cfg.Slack, stays continuous
	// across the front line so a mm-scale overshoot reads as mm-scale.
	after := c.Cfg.Geometry.PF - c.Cfg.BrakingDistance(next.V) - next.P
	if after < -tol {
		return stepViolation(c.Name(), s,
			"κ_e command a=%.3f drives slack %.6f → %.6f (ego p=%.3f v=%.3f)",
			s.Accel, slack, after, s.Ego.P, s.Ego.V)
	}
	return nil
}

// GuardConsistency asserts the planner-fault guard's containment
// contract on every step it intervened in: the executed acceleration is
// finite and inside the actuation envelope (± Tol), an "emergency"
// fallback is flagged as a κ_e step, a "last-good" fallback is not (it
// replays a validated nominal action), and no contained fault ever
// reaches the actuators without a fallback.  Steps without guard
// activity are skipped, so the checker composes with any agent.
//
// Unlike MonitorConsistency this checker stays valid under fault
// injection — the guard forcing κ_e on a panic step is exactly the
// behaviour it asserts, whereas the monitor-iff-boundary property is
// deliberately broken by such a step.
type GuardConsistency struct {
	StepOnly
	// Limits is the actuation envelope the guard enforces.
	Limits dynamics.Limits
	// Tol absorbs floating-point slack at the envelope edges; 0 selects
	// the guard's own range tolerance.
	Tol float64
}

// NewGuardConsistency builds the checker for the left-turn scenario's ego
// envelope.
func NewGuardConsistency(cfg leftturn.Config) GuardConsistency {
	return GuardConsistency{Limits: cfg.Ego}
}

// Name implements Invariant.
func (GuardConsistency) Name() string { return "guard-consistency" }

// CheckStep implements Invariant.
func (c GuardConsistency) CheckStep(s *StepInfo) error {
	if s.GuardFault == "" && s.GuardFallback == "" {
		return nil // no guard, or clean pass-through
	}
	tol := c.Tol
	if tol == 0 {
		tol = 1e-9
	}
	if math.IsNaN(s.Accel) || math.IsInf(s.Accel, 0) {
		return stepViolation(c.Name(), s,
			"guard passed non-finite acceleration %v (fault %q, fallback %q)",
			s.Accel, s.GuardFault, s.GuardFallback)
	}
	if s.Accel < c.Limits.AMin-tol || s.Accel > c.Limits.AMax+tol {
		return stepViolation(c.Name(), s,
			"guard passed out-of-range acceleration %v outside [%v, %v] (fault %q, fallback %q)",
			s.Accel, c.Limits.AMin, c.Limits.AMax, s.GuardFault, s.GuardFallback)
	}
	if s.GuardFault != "" && s.GuardFallback == "" {
		return stepViolation(c.Name(), s,
			"fault %q reached the actuators without a fallback (a=%v)", s.GuardFault, s.Accel)
	}
	switch s.GuardFallback {
	case "emergency":
		if !s.Emergency {
			return stepViolation(c.Name(), s,
				"emergency fallback not flagged as a κ_e step (fault %q)", s.GuardFault)
		}
	case "last-good":
		if s.Emergency {
			return stepViolation(c.Name(), s,
				"last-good fallback flagged as a κ_e step (fault %q)", s.GuardFault)
		}
	}
	return nil
}

// MonitorConsistency asserts that the agent hands control to κ_e exactly
// when the runtime monitor's assessment of the *sound* conservative window
// says so (monitor-selects-κ_e iff the state is in X_b, the unsafe set, or
// the stopped-at-line hold).  It re-runs monitor.Assess on the checker's
// side from the same inputs the compound planner consumes, so it is valid
// only for single-vehicle compound agents with the default monitor tuning
// and the sound-monitor wiring (MonitorOnFused unset) — exactly the
// designs that carry the paper's guarantee.
type MonitorConsistency struct {
	StepOnly
	Cfg leftturn.Config
	Mon monitor.Monitor
}

// NewMonitorConsistency builds the checker with the default monitor tuning
// (the one core.NewBasic / core.NewUltimate install).  It returns a
// pointer, so the two scenario configurations it holds are not copied
// through the Invariant interface on every step.
func NewMonitorConsistency(cfg leftturn.Config) *MonitorConsistency {
	return &MonitorConsistency{Cfg: cfg, Mon: monitor.New(cfg)}
}

// Name implements Invariant.
func (*MonitorConsistency) Name() string { return "monitor-iff-boundary" }

// CheckStep implements Invariant.
func (c *MonitorConsistency) CheckStep(s *StepInfo) error {
	est := leftturn.OncomingEstimate{
		P: s.Est.SoundP, V: s.Est.SoundV,
		PointP: s.Est.PointP, PointV: s.Est.PointV,
		A: s.Est.A,
	}
	want := c.Mon.Assess(s.Ego, c.Cfg.ConservativeWindow(est))
	if want.Emergency != s.Emergency {
		return stepViolation(c.Name(), s,
			"agent emergency=%v but monitor says %v (reason %q, ego p=%.3f v=%.3f)",
			s.Emergency, want.Emergency, want.Reason, s.Ego.P, s.Ego.V)
	}
	return nil
}

// StandardInvariants is the full checker set for guaranteed left-turn
// compound designs: no collision (η ≥ 0), sound estimates contain the
// true state, the Eq. 4 emergency one-step slack, and
// monitor-selects-κ_e-iff-X_b consistency.
func StandardInvariants(sc leftturn.Config) []Invariant {
	return []Invariant{NoCollision{}, SoundEstimate{}, EmergencyOneStep{Cfg: sc}, NewMonitorConsistency(sc)}
}

// FaultInvariants is the checker set for guarded runs under planner
// fault injection: StandardInvariants with guard-intervention
// well-formedness in place of monitor consistency, which is absent by
// design — a guard-forced κ_e step diverges from the monitor's verdict.
func FaultInvariants(sc leftturn.Config) []Invariant {
	return []Invariant{NoCollision{}, SoundEstimate{}, EmergencyOneStep{Cfg: sc}, NewGuardConsistency(sc)}
}
