package sim

import (
	"math/rand"

	"safeplan/internal/dynamics"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/telemetry"
	"safeplan/internal/xrand"
)

// GuardedStep bundles one episode's planner-fault containment state: the
// guard and, when a fault model is configured, the fault injector wrapped
// around the agent call.  Agents are shared across campaign workers and
// must stay stateless, so this state lives in the episode runners, one
// instance per episode.
type GuardedStep struct {
	g   *guard.Guard
	inj *faultinject.Injector
}

// NewGuardedStep instantiates the episode's guard and injector from the
// config.  With neither a guard nor a fault model it returns nil (and the
// step loops keep their direct agent call).  A fault model without an
// explicit guard installs guard.DefaultConfig(lim): injected panics must
// never escape the runner.  The injector's streams derive from master
// only when a fault model is configured — after every legacy stream — so
// existing configurations keep their exact per-seed behaviour.
func NewGuardedStep(gcfg *guard.Config, fm faultinject.Model, lim dynamics.Limits, master *rand.Rand) (*GuardedStep, error) {
	if gcfg == nil && fm == nil {
		return nil, nil
	}
	var gs GuardedStep
	if fm != nil {
		inj, err := faultinject.NewInjector(fm,
			xrand.New(master.Int63()),
			xrand.New(master.Int63()),
		)
		if err != nil {
			return nil, err
		}
		gs.inj = inj
	}
	cfg := guard.DefaultConfig(lim)
	if gcfg != nil {
		cfg = *gcfg
		if cfg.Limits == (dynamics.Limits{}) {
			cfg.Limits = lim
		}
	}
	g, err := guard.New(cfg)
	if err != nil {
		return nil, err
	}
	gs.g = g
	return &gs, nil
}

// Stats returns the guard's episode statistics accumulated so far.
func (gs *GuardedStep) Stats() guard.EpisodeStats { return gs.g.Stats() }

// SetCertifiedRange arms the guard's IBP cross-check (see
// guard.Guard.SetCertifiedRange).
func (gs *GuardedStep) SetCertifiedRange(f func() (lo, hi float64, ok bool), tol float64) {
	gs.g.SetCertifiedRange(f, tol)
}

// Step runs one guarded planner invocation, threading the injector (when
// configured) inside the guard so injected panics and latencies are
// contained and accounted like genuine ones.  envelope, when non-nil,
// supplies the monitor's safe-action interval for the current state; the
// guard validates every executed non-emergency command against it (see
// guard.Guard.Step).
func (gs *GuardedStep) Step(t float64, plan func() (float64, bool), emergency func() float64, envelope func() (lo, hi float64, ok bool)) (float64, bool, guard.StepResult) {
	wrapped := plan
	var latFn func() float64
	if gs.inj != nil {
		wrapped = func() (float64, bool) { return gs.inj.Apply(t, plan) }
		latFn = gs.inj.SimLatency
	}
	return gs.g.Step(wrapped, emergency, latFn, envelope)
}

// annotate fills a StepInfo's guard fields from the step result.
func (gs *GuardedStep) Annotate(s *StepInfo, r guard.StepResult) {
	s.GuardState = r.State.String()
	if r.Fault != guard.FaultNone {
		s.GuardFault = r.Fault.String()
	}
	if r.Fallback != guard.FallbackNone {
		s.GuardFallback = r.Fallback.String()
	}
}

// report forwards a guard intervention to the collector.  Clean
// pass-through steps (no fault, no fallback, no transition) stay silent,
// so guarded no-fault runs emit zero guard events.
func (gs *GuardedStep) Report(coll telemetry.Collector, t float64, r guard.StepResult) {
	if r.Fault == guard.FaultNone && r.Fallback == guard.FallbackNone && !r.Transition() {
		return
	}
	e := telemetry.GuardEvent{
		T:          t,
		State:      r.State.String(),
		From:       r.Prev.String(),
		Transition: r.Transition(),
	}
	if r.Fault != guard.FaultNone {
		e.Fault = r.Fault.String()
	}
	if r.Fallback != guard.FallbackNone {
		e.Fallback = r.Fallback.String()
	}
	coll.OnGuardEvent(e)
}
