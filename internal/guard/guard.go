// Package guard contains every compute-side failure mode of the embedded
// planner κ_n: panics, NaN/±Inf outputs, commands outside the actuation
// envelope, and blown per-step compute budgets (a deterministic
// simulated-time budget plus an optional wall-clock watchdog).  On a
// contained fault the guard substitutes a validated fallback — the last
// known-good κ_n command, or the emergency planner κ_e — and drives a
// degradation state machine (NOMINAL → DEGRADED → EMERGENCY_ONLY) with
// hysteresis, so a flaky planner loses trust quickly and re-earns it
// slowly.
//
// Soundness note (why the paper's safety theorem survives planner
// faults): the §III-E argument needs two properties of the control
// stack.  First, whenever the state is in the boundary safe set X_b, the
// command executed is κ_e's — the runtime monitor enforces that on every
// step where κ_n returns a usable verdict, and the guard commands κ_e
// itself on every step where it does not.  Second — and this is the
// subtle one — in the *committed* regime (negative slack: the ego can no
// longer stop before the conflict zone) the monitor returns
// emergency=false but silently clamps κ_n's output to a commitment guard
// (a floor while passing before the oncoming vehicle, a ceiling while
// passing after), so "returned normally with emergency=false" does NOT
// mean any admissible command is one-step safe.  The guard therefore
// revalidates every executed command against the monitor's safe-action
// envelope for the *current* state (the Envelope callback): a
// pass-through or cached last-good command outside the envelope is
// rejected as an output-validation fault and replaced by κ_e.  κ_e
// itself always satisfies the envelope — a feasible passing-before floor
// is at most AMax (else the monitor declares the commitment infeasible
// and hands off), and a passing-after ceiling only exists while even a
// full-throttle arrival stays behind the oncoming vehicle's latest exit,
// so the ceiling clamps at AMax.  κ_n's output is therefore never
// trusted beyond what the monitor plus guard validated, and the theorem
// goes through unchanged.  See DESIGN.md §11.
package guard

import (
	"fmt"
	"math"
	"time"

	"safeplan/internal/dynamics"
)

// State is the guard's trust level in the wrapped planner.
type State int

const (
	// Nominal: κ_n is trusted; faults fall back per-step.
	Nominal State = iota
	// Degraded: recent faults; fallbacks go straight to κ_e (the
	// last-good cache is considered stale on a degraded planner).
	Degraded
	// EmergencyOnly: the planner has lost trust entirely; κ_e commands
	// every step while κ_n is shadow-called so it can re-earn trust.
	EmergencyOnly
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Nominal:
		return "nominal"
	case Degraded:
		return "degraded"
	case EmergencyOnly:
		return "emergency-only"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Fault classifies one contained planner failure.
type Fault int

const (
	// FaultNone: the call returned a usable command.
	FaultNone Fault = iota
	// FaultPanic: the call panicked (recovered by the guard).
	FaultPanic
	// FaultDeadline: the simulated compute latency exceeded StepBudget.
	FaultDeadline
	// FaultWallClock: the wall-clock watchdog budget was exceeded.
	FaultWallClock
	// FaultNonFinite: the command was NaN or ±Inf.
	FaultNonFinite
	// FaultRange: the command failed output validation — outside the
	// actuation limits, outside the monitor's safe-action envelope for
	// the current state (a stuck or biased output stage violating a
	// commitment guard), or an emergency-flagged command deviating from
	// κ_e's recomputed command (a corrupted output stage impersonating the
	// trusted emergency planner).
	FaultRange
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultDeadline:
		return "deadline"
	case FaultWallClock:
		return "wall-clock"
	case FaultNonFinite:
		return "non-finite"
	case FaultRange:
		return "range"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Fallback names the action source that replaced κ_n's output.
type Fallback int

const (
	// FallbackNone: κ_n's own command was executed.
	FallbackNone Fallback = iota
	// FallbackLastGood: the cached last known-good κ_n command.
	FallbackLastGood
	// FallbackEmergency: the emergency planner κ_e.
	FallbackEmergency
)

// String implements fmt.Stringer.
func (f Fallback) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackLastGood:
		return "last-good"
	case FallbackEmergency:
		return "emergency"
	}
	return fmt.Sprintf("fallback(%d)", int(f))
}

// Default thresholds; see Config.
const (
	DefaultStepBudget     = 0.1 // one control period at the paper's Δt_c
	DefaultLastGoodTTL    = 5
	DefaultDegradeScore   = 3
	DefaultEmergencyScore = 8
	DefaultRecoverySteps  = 20
)

// rangeTol absorbs round-off in planners that compute commands exactly at
// the envelope edge (e.g. clamped bisection landing on AMin ± 1 ulp).
const rangeTol = 1e-9

// Config tunes the guard.  The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Limits is the actuation envelope commands are validated against.
	// The episode runners fill it from the scenario's ego limits when the
	// zero value is left in place.
	Limits dynamics.Limits

	// StepBudget is the per-step simulated compute budget [s]: a planner
	// call whose *simulated* latency (reported by the fault injector)
	// exceeds it is a deadline fault.  Deterministic — it never reads the
	// wall clock.  Zero disables the check; DefaultConfig sets one
	// control period.
	StepBudget float64

	// WallBudget, when positive, adds a wall-clock watchdog: a call that
	// takes longer than this on the host is treated as a deadline fault
	// *after it returns*.  A call that never returns cannot be preempted
	// — Go offers no safe way to kill a goroutine — so this is a
	// detection bound, not a hard kill; it exists for real inference
	// backends, stays off by default, and is excluded from the
	// determinism guarantee.
	WallBudget time.Duration

	// LastGoodTTL is the maximum age [steps] of the cached last-good
	// command.  Beyond it, faults fall back to κ_e directly.
	LastGoodTTL int

	// DegradeScore and EmergencyScore are the leaky-bucket fault scores
	// (+1 per fault, −1 per clean step, floor 0) at which the guard
	// enters Degraded and EmergencyOnly.
	DegradeScore   int
	EmergencyScore int

	// RecoverySteps is the clean-step streak (with a drained score)
	// required to climb one trust level back up.  Climbing two levels
	// takes two full streaks — the hysteresis that stops a flaky planner
	// from oscillating in and out of trust.
	RecoverySteps int
}

// DefaultConfig returns the guard tuning used by the episode runners when
// a fault model is injected without an explicit guard: envelope checks
// against lim, a one-control-period simulated deadline, no wall-clock
// watchdog, and the default degradation thresholds.
func DefaultConfig(lim dynamics.Limits) Config {
	return Config{
		Limits:         lim,
		StepBudget:     DefaultStepBudget,
		LastGoodTTL:    DefaultLastGoodTTL,
		DegradeScore:   DefaultDegradeScore,
		EmergencyScore: DefaultEmergencyScore,
		RecoverySteps:  DefaultRecoverySteps,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Limits.Validate(); err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	if math.IsNaN(c.StepBudget) || math.IsInf(c.StepBudget, 0) || c.StepBudget < 0 {
		return fmt.Errorf("guard: bad step budget %v", c.StepBudget)
	}
	if c.WallBudget < 0 {
		return fmt.Errorf("guard: negative wall budget %v", c.WallBudget)
	}
	if c.LastGoodTTL < 0 {
		return fmt.Errorf("guard: negative last-good TTL %d", c.LastGoodTTL)
	}
	if c.DegradeScore < 1 || c.EmergencyScore < 1 {
		return fmt.Errorf("guard: degradation scores must be >= 1 (degrade %d, emergency %d)",
			c.DegradeScore, c.EmergencyScore)
	}
	if c.EmergencyScore < c.DegradeScore {
		return fmt.Errorf("guard: emergency score %d below degrade score %d",
			c.EmergencyScore, c.DegradeScore)
	}
	if c.RecoverySteps < 1 {
		return fmt.Errorf("guard: recovery steps %d must be >= 1", c.RecoverySteps)
	}
	return nil
}

// EpisodeStats aggregates one episode's guard activity.  All fields are
// plain counts, so campaign shards can fold them order-independently.
type EpisodeStats struct {
	// PlannerCalls counts guarded κ_n invocations (including shadow
	// calls in EmergencyOnly).
	PlannerCalls int `json:"planner_calls"`

	// Faults counts contained failures, broken down by kind below.
	Faults       int `json:"faults"`
	Panics       int `json:"panics"`
	NonFinite    int `json:"non_finite"`
	RangeRejects int `json:"range_rejects"`
	Deadline     int `json:"deadline"`
	WallClock    int `json:"wall_clock"`

	// FallbackLastGood / FallbackEmergency count substituted commands by
	// source; BypassSteps counts EmergencyOnly steps where κ_e commanded
	// regardless of the shadow call's verdict.
	FallbackLastGood  int `json:"fallback_last_good"`
	FallbackEmergency int `json:"fallback_emergency"`
	BypassSteps       int `json:"bypass_steps"`

	// Degradations / Recoveries count downward / upward state
	// transitions; WorstState and FinalState summarize the trajectory.
	Degradations int   `json:"degradations"`
	Recoveries   int   `json:"recoveries"`
	WorstState   State `json:"worst_state"`
	FinalState   State `json:"final_state"`

	// CertifiedSteps counts clean pass-through steps cross-checked
	// against an IBP certified range; CertifiedRangeMisses counts those
	// whose executed command fell outside it.  Both stay zero (and out of
	// the JSON) unless SetCertifiedRange armed the check.
	CertifiedSteps       int `json:"certified_steps,omitempty"`
	CertifiedRangeMisses int `json:"certified_range_misses,omitempty"`
}

// StepResult reports what the guard did on one step.
type StepResult struct {
	// Fault is the contained failure (FaultNone on a clean call).
	Fault Fault
	// Fallback is the source of the executed command when κ_n's own
	// output was not used.
	Fallback Fallback
	// Prev and State are the degradation state before and after the step.
	Prev, State State
	// PanicValue is the recovered panic payload (nil otherwise).
	PanicValue any
	// CertifiedMiss is set when the executed command fell outside the
	// IBP certified range (diagnostic only — the command still executes,
	// the envelope check remains the enforcement layer).
	CertifiedMiss bool
}

// Transition reports whether the step moved the state machine.
func (r StepResult) Transition() bool { return r.State != r.Prev }

// Guard is one episode's planner-fault containment state.  It is not
// safe for concurrent use; episode runners create one per episode (agents
// are shared across campaign workers, the guard is not).
type Guard struct {
	cfg Config

	state       State
	score       int
	cleanStreak int

	lastGood    float64
	lastGoodAge int
	hasLastGood bool

	certified func() (lo, hi float64, ok bool)

	stats EpisodeStats
}

// New builds an episode guard.
func New(cfg Config) (*Guard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Guard{cfg: cfg}, nil
}

// State returns the current degradation state.
func (g *Guard) State() State { return g.state }

// SetCertifiedRange arms the IBP cross-check: f returns the certified
// output range of the planner network for the current step's sound
// estimate (ok=false when no range is available, e.g. a non-NN planner
// or an unbounded estimate).  Clean non-emergency pass-through commands
// are then checked against [lo, hi] with no tolerance (the range
// contains the planner's float command; see internal/nn/ibp) and misses
// are counted in EpisodeStats — flagged, not substituted, because the
// certified range is a diagnostic over-approximation while the monitor
// envelope is the enforcement layer.  Pass nil to disarm.
func (g *Guard) SetCertifiedRange(f func() (lo, hi float64, ok bool)) {
	g.certified = f
}

// Stats returns the episode statistics accumulated so far.
func (g *Guard) Stats() EpisodeStats {
	s := g.stats
	s.FinalState = g.state
	return s
}

// Step runs one guarded planner invocation.  plan is the wrapped κ_n
// call; emergency computes κ_e's command for the current ego state (only
// invoked when needed, so its cost is paid on fallback steps alone);
// simLatency, when non-nil, reports the call's simulated compute latency
// [s] for the deterministic deadline check (it is read after plan returns
// or panics — fault injectors record the latency before raising);
// envelope, when non-nil, returns the monitor's safe-action interval for
// the *current* state (ok=false: no non-emergency command is admissible).
// Every executed non-emergency command — κ_n's own and the cached
// last-good — is validated against it, which is what keeps fallbacks
// sound in the committed regime where the monitor clamps silently.  A
// nil envelope validates against the actuation limits alone.
func (g *Guard) Step(plan func() (float64, bool), emergency func() float64, simLatency func() float64, envelope func() (lo, hi float64, ok bool)) (float64, bool, StepResult) {
	prev := g.state
	if g.hasLastGood {
		g.lastGoodAge++
	}

	a, em, pv, wall := g.call(plan)
	g.stats.PlannerCalls++
	fault := g.classify(a, pv, wall, simLatency)

	// The envelope is state-dependent, not command-dependent: compute it
	// at most once per step, shared by the pass-through check and the
	// last-good revalidation.
	envLo, envHi := g.cfg.Limits.AMin, g.cfg.Limits.AMax
	envOK, envDone := true, false
	env := func() (float64, float64, bool) {
		if !envDone {
			envDone = true
			if envelope != nil {
				envLo, envHi, envOK = envelope()
			}
		}
		return envLo, envHi, envOK
	}

	// κ_e cross-check: an emergency-flagged command must be κ_e's own.
	// κ_e is deterministic, so the guard recomputes it and rejects any
	// deviation (a stuck or biased output stage replaying a stale command
	// under a truthful emergency verdict) as an output-validation fault.
	var eAccel float64
	haveE := false
	if fault == FaultNone && em {
		eAccel, haveE = emergency(), true
		if math.Abs(a-eAccel) > rangeTol {
			fault = FaultRange
		}
	}

	// Envelope check: a non-emergency command must sit inside the
	// monitor's safe-action interval for the current state.  Inside the
	// actuation limits is not enough — in the committed regime the
	// monitor imposes a floor or ceiling with emergency=false, and a
	// corrupted output stage (stuck, biased) can violate it with a
	// perfectly plausible-looking command.
	if fault == FaultNone && !em {
		if lo, hi, ok := env(); !ok || !(a >= lo-rangeTol && a <= hi+rangeTol) {
			fault = FaultRange
		}
	}

	r := StepResult{Fault: fault, Prev: prev, PanicValue: pv}
	if fault == FaultNone {
		g.onClean()
		r.State = g.state
		if prev == EmergencyOnly {
			// Bypass: the shadow call succeeded, but κ_e keeps control
			// until the planner re-earns trust.
			g.stats.BypassSteps++
			g.stats.FallbackEmergency++
			r.Fallback = FallbackEmergency
			if !haveE {
				eAccel = emergency()
			}
			return eAccel, true, r
		}
		if !em {
			g.lastGood, g.hasLastGood, g.lastGoodAge = a, true, 0
			// IBP cross-check on the executed κ_n command.  Emergency and
			// bypass steps execute κ_e, which the certified range does not
			// describe, so only this arm is checked.
			if g.certified != nil {
				if lo, hi, ok := g.certified(); ok {
					g.stats.CertifiedSteps++
					// Written so that a NaN bound counts as a miss.
					if !(a >= lo && a <= hi) {
						g.stats.CertifiedRangeMisses++
						r.CertifiedMiss = true
					}
				}
			}
		}
		return a, em, r
	}

	g.recordFault(fault)
	g.onFault()
	r.State = g.state

	// The last-good cache is eligible only from a trusted planner whose
	// call *returned* with a non-emergency verdict (a panic yields no
	// verdict, and an emergency verdict demands κ_e itself), and only
	// after revalidating the cached command against the current state's
	// envelope: a command the monitor approved a few steps ago can
	// violate a commitment guard that has tightened since.
	if prev == Nominal && pv == nil && !em && g.hasLastGood && g.lastGoodAge <= g.cfg.LastGoodTTL {
		if lo, hi, ok := env(); ok && g.lastGood >= lo-rangeTol && g.lastGood <= hi+rangeTol {
			g.stats.FallbackLastGood++
			r.Fallback = FallbackLastGood
			return g.lastGood, false, r
		}
	}
	g.stats.FallbackEmergency++
	r.Fallback = FallbackEmergency
	if !haveE {
		eAccel = emergency()
	}
	return eAccel, true, r
}

// call invokes the planner with panic containment and optional wall-clock
// measurement.
func (g *Guard) call(plan func() (float64, bool)) (a float64, em bool, pv any, wall time.Duration) {
	var start time.Time
	if g.cfg.WallBudget > 0 {
		start = time.Now()
	}
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				pv = rec
				a, em = math.NaN(), false
			}
		}()
		a, em = plan()
	}()
	if g.cfg.WallBudget > 0 {
		wall = time.Since(start)
	}
	return a, em, pv, wall
}

// classify orders the fault checks: a panic trumps everything, budget
// violations trump output validation (a late command is invalid even if
// well-formed), and non-finite trumps range (NaN compares false to any
// bound).
func (g *Guard) classify(a float64, pv any, wall time.Duration, simLatency func() float64) Fault {
	if pv != nil {
		return FaultPanic
	}
	if g.cfg.StepBudget > 0 && simLatency != nil && simLatency() > g.cfg.StepBudget {
		return FaultDeadline
	}
	if g.cfg.WallBudget > 0 && wall > g.cfg.WallBudget {
		return FaultWallClock
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return FaultNonFinite
	}
	if a < g.cfg.Limits.AMin-rangeTol || a > g.cfg.Limits.AMax+rangeTol {
		return FaultRange
	}
	return FaultNone
}

func (g *Guard) recordFault(f Fault) {
	g.stats.Faults++
	switch f {
	case FaultPanic:
		g.stats.Panics++
	case FaultDeadline:
		g.stats.Deadline++
	case FaultWallClock:
		g.stats.WallClock++
	case FaultNonFinite:
		g.stats.NonFinite++
	case FaultRange:
		g.stats.RangeRejects++
	}
}

// onClean drains the leaky bucket and climbs one trust level per full
// clean streak once the score is drained.
func (g *Guard) onClean() {
	g.cleanStreak++
	if g.score > 0 {
		g.score--
	}
	if g.state != Nominal && g.score == 0 && g.cleanStreak >= g.cfg.RecoverySteps {
		g.state--
		g.cleanStreak = 0
		g.stats.Recoveries++
	}
}

// onFault fills the leaky bucket and degrades on threshold crossings.  A
// single step raises the score by one, so the machine always passes
// through Degraded on its way down.
func (g *Guard) onFault() {
	g.cleanStreak = 0
	if g.score < g.cfg.EmergencyScore {
		g.score++
	}
	switch {
	case g.state == Nominal && g.score >= g.cfg.DegradeScore:
		g.state = Degraded
		g.stats.Degradations++
	case g.state == Degraded && g.score >= g.cfg.EmergencyScore:
		g.state = EmergencyOnly
		g.stats.Degradations++
	}
	if g.state > g.stats.WorstState {
		g.stats.WorstState = g.state
	}
}
