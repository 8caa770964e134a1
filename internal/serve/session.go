package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
)

// engine is the resumable-stepper contract both engines satisfy
// (sim.MultiStepper, which sessions open as the single-vehicle left turn
// or the oncoming stream, and the stop-and-go chain engine
// carfollow.Stepper, which sessions open as car following): advance one
// control step with optional streamed events, then settle the episode
// result exactly once.
type engine interface {
	Step(sim.StepInput) (sim.StepOutcome, error)
	Finish() (sim.Result, error)
}

// session is one live vehicle episode: a long-lived engine plus the
// bounded mailbox connection handlers feed.  All engine access happens on
// the owning shard's worker goroutine; connection handlers only enqueue.
type session struct {
	id string
	sh *shard

	eng     engine
	scratch *sim.Scratch

	// mailbox carries pending requests.  Bounded: a full mailbox is the
	// backpressure signal (the handler rejects instead of blocking).
	mailbox chan envelope
	// mu orders mailbox enqueues against teardown: enqueue checks closed
	// under the lock, and teardown flips closed before draining, so no
	// envelope can land in a dead mailbox unanswered.
	mu     sync.Mutex
	closed bool
	// scheduled guards the session's single runqueue slot: CAS false→true
	// wins the right to enqueue onto the shard runqueue, and the worker
	// clears it after draining.  At most one slot per session means the
	// runqueue (sized at the session cap) can never block a sender.
	scheduled atomic.Bool
	// closeReq holds the pending close request, if any.  Close bypasses
	// the mailbox (cancellation must not be subject to backpressure) and
	// jumps the queue at the worker.
	closeReq atomic.Pointer[envelope]
	// lastActive is the unix-nano timestamp of the last client request,
	// read by the idle reaper.
	lastActive atomic.Int64
	// reap is set by the idle reaper; the worker tears the session down
	// at its next scheduling instead of processing the mailbox.
	reap atomic.Bool

	// Worker-owned episode bookkeeping (no locking: single worker).
	finished bool
	result   *ResultSummary
	engErr   error
}

// touch stamps the session for the idle reaper.
func (s *session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// enqueue places an envelope in the bounded mailbox, returning the
// rejection reason ("" on success): ReasonBackpressure when full,
// ReasonSessionClosed when racing a teardown.
func (s *session) enqueue(e envelope) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ReasonSessionClosed
	}
	select {
	case s.mailbox <- e:
		return ""
	default:
		return ReasonBackpressure
	}
}

// schedule queues the session onto its shard's runqueue if it does not
// already hold a slot.  The capacity-per-session invariant makes the send
// non-blocking.
func (s *session) schedule() {
	if s.scheduled.CompareAndSwap(false, true) {
		s.sh.runq <- s
	}
}

// envelope pairs a request with the connection it must be answered on.
type envelope struct {
	req Request
	w   *connWriter
}

// buildEngine constructs the session's episode engine from the open
// request.  The scratch arena comes from the shard's free list, so
// repeated open/close cycles on a shard reuse pooled engines and their
// internal buffers (the PR 5 allocation-free discipline, now applied to
// session churn).
func buildEngine(req Request, opts sim.Options) (engine, error) {
	design := req.Design
	if design == "" {
		design = DesignUltimate
	}
	pl := req.Planner
	if pl == "" {
		pl = PlannerConservative
	}
	var model disturb.Model
	if req.Disturb != "" {
		m, err := disturb.Preset(req.Disturb)
		if err != nil {
			return nil, err
		}
		model = m
	}

	switch req.Scenario {
	case "", ScenarioLeftTurn:
		cfg := sim.DefaultConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = design == DesignUltimate
		var kn planner.Planner
		switch pl {
		case PlannerConservative:
			kn = planner.ConservativeExpert(cfg.Scenario)
		case PlannerAggressive:
			kn = planner.AggressiveExpert(cfg.Scenario)
		default:
			return nil, fmt.Errorf("serve: unknown planner %q", pl)
		}
		var agent core.Agent
		switch design {
		case DesignPure:
			agent = &core.PureNN{Cfg: cfg.Scenario, Planner: kn}
		case DesignBasic:
			agent = core.NewBasic(cfg.Scenario, kn)
		case DesignUltimate:
			agent = core.NewUltimate(cfg.Scenario, kn)
		default:
			return nil, fmt.Errorf("serve: unknown design %q", design)
		}
		return sim.NewStepper(cfg, agent, opts)

	case ScenarioMulti:
		cfg := sim.DefaultMultiConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = design == DesignUltimate
		var kn planner.Planner
		switch pl {
		case PlannerConservative:
			kn = planner.ConservativeExpert(cfg.Scenario)
		case PlannerAggressive:
			kn = planner.AggressiveExpert(cfg.Scenario)
		default:
			return nil, fmt.Errorf("serve: unknown planner %q", pl)
		}
		var agent core.MultiAgent
		switch design {
		case DesignPure:
			agent = &core.MultiPure{Cfg: cfg.Scenario, Planner: kn}
		case DesignBasic:
			agent = core.NewMultiBasic(cfg.Scenario, kn)
		case DesignUltimate:
			agent = core.NewMultiUltimate(cfg.Scenario, kn)
		default:
			return nil, fmt.Errorf("serve: unknown design %q", design)
		}
		return sim.NewMultiStepper(cfg, agent, opts)

	case ScenarioCarFollow:
		cfg := carfollow.DefaultSimConfig()
		if model != nil {
			cfg.Comms = comms.Disturbed(model)
		}
		cfg.InfoFilter = design == DesignUltimate
		var kn carfollow.Planner
		switch pl {
		case PlannerConservative:
			kn = carfollow.ConservativeExpert(cfg.Scenario)
		case PlannerAggressive:
			kn = carfollow.AggressiveExpert(cfg.Scenario)
		default:
			return nil, fmt.Errorf("serve: unknown planner %q", pl)
		}
		var agent carfollow.Agent
		switch design {
		case DesignPure:
			agent = &carfollow.Pure{Cfg: cfg.Scenario, Planner: kn}
		case DesignBasic:
			agent = carfollow.NewBasic(cfg.Scenario, kn)
		case DesignUltimate:
			agent = carfollow.NewUltimate(cfg.Scenario, kn)
		default:
			return nil, fmt.Errorf("serve: unknown design %q", design)
		}
		return carfollow.NewStepper(cfg, agent, opts)
	}
	return nil, fmt.Errorf("serve: unknown scenario %q", req.Scenario)
}
