package sim

import (
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
)

// stepperAgent builds the canonical golden-config agent (ultimate
// compound, conservative κ_n).
func stepperAgent(cfg Config) core.Agent {
	return core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
}

// driveStepper runs a freshly constructed Stepper to termination one
// explicit Step at a time — the session-style loop — and finalizes it.
func driveStepper(t *testing.T, cfg Config, opts Options) Result {
	t.Helper()
	st, err := NewStepper(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10*st.maxSteps {
			t.Fatalf("stepper did not terminate after %d steps", steps)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStepperRunParity pins the ownership inversion: a Stepper driven
// step by step from the outside — a fresh engine per episode, with and
// without an arena, and a pooled engine reused across episodes — must be
// byte-identical to the closed Run loop across every golden config.
func TestStepperRunParity(t *testing.T) {
	reused := NewScratch()
	for _, ep := range goldenEpisodes() {
		t.Run(ep.Name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				opts := Options{Seed: seed}
				want, err := Run(ep.Cfg, stepperAgent(ep.Cfg), opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := mustJSON(t, want)
				if got := mustJSON(t, driveStepper(t, ep.Cfg, opts)); got != ref {
					t.Fatalf("seed %d: stepper-driven episode diverged from Run\nrun:     %s\nstepper: %s", seed, ref, got)
				}
				pooled := opts
				pooled.Scratch = reused
				if got := mustJSON(t, driveStepper(t, ep.Cfg, pooled)); got != ref {
					t.Fatalf("seed %d: pooled stepper episode diverged from Run\nrun:    %s\npooled: %s", seed, ref, got)
				}
			}
		})
	}
}

// TestMultiStepperRunParity is the multi-vehicle twin.
func TestMultiStepperRunParity(t *testing.T) {
	cfg := DefaultMultiConfig()
	cfg.Comms = allocBenchConfig().Comms
	cfg.InfoFilter = true
	agent := consMultiAgent(cfg)
	reused := NewScratch()
	for seed := int64(0); seed < 10; seed++ {
		want, err := RunMulti(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref := mustJSON(t, want)
		for name, opts := range map[string]Options{
			"fresh":  {Seed: seed},
			"pooled": {Seed: seed, Scratch: reused},
		} {
			st, err := NewMultiStepper(cfg, agent, opts)
			if err != nil {
				t.Fatal(err)
			}
			for !st.Done() {
				if _, err := st.Step(StepInput{}); err != nil {
					t.Fatal(err)
				}
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, res); got != ref {
				t.Fatalf("seed %d (%s): stepper-driven episode diverged from RunMulti\nrun:     %s\nstepper: %s", seed, name, ref, got)
			}
		}
	}
}

// TestStepperInterleaving pins that episode state is fully owned by the
// engine object: two concurrently live Steppers advanced in alternation
// produce exactly the episodes they produce when run in isolation.  The
// closed Run loop can never exercise this; a streaming server always
// does.
func TestStepperInterleaving(t *testing.T) {
	cfg := goldenEpisodes()[1].Cfg // delayed comms + info filter
	solo := func(seed int64) string {
		r, err := Run(cfg, stepperAgent(cfg), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, r)
	}
	wantA, wantB := solo(3), solo(4)

	// Interleaved: distinct arenas (a shared arena is per-episode by
	// contract), strictly alternating steps.
	a, err := NewStepper(cfg, stepperAgent(cfg), Options{Seed: 3, Scratch: NewScratch()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStepper(cfg, stepperAgent(cfg), Options{Seed: 4, Scratch: NewScratch()})
	if err != nil {
		t.Fatal(err)
	}
	for !a.Done() || !b.Done() {
		if !a.Done() {
			if _, err := a.Step(StepInput{}); err != nil {
				t.Fatal(err)
			}
		}
		if !b.Done() {
			if _, err := b.Step(StepInput{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ra, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, ra); got != wantA {
		t.Fatalf("interleaved episode A diverged from solo run\nsolo:        %s\ninterleaved: %s", wantA, got)
	}
	if got := mustJSON(t, rb); got != wantB {
		t.Fatalf("interleaved episode B diverged from solo run\nsolo:        %s\ninterleaved: %s", wantB, got)
	}
}

// TestStepperTerminalContract pins the session-facing edge semantics:
// steps past the end return the terminal outcome without perturbing the
// result, Finish is idempotent, and a mid-episode Finish yields the
// partial result (the cancellation path).
func TestStepperTerminalContract(t *testing.T) {
	cfg := goldenEpisodes()[0].Cfg
	st, err := NewStepper(cfg, stepperAgent(cfg), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var last StepOutcome
	for !st.Done() {
		out, err := st.Step(StepInput{})
		if err != nil {
			t.Fatal(err)
		}
		last = out
	}
	if !last.Done {
		t.Fatal("terminal step did not report Done")
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ref := mustJSON(t, res)

	over, err := st.Step(StepInput{})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Done || over.Collided != last.Collided || over.Reached != last.Reached {
		t.Fatalf("past-the-end step changed the terminal outcome: %+v vs %+v", over, last)
	}
	again, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, again); got != ref {
		t.Fatalf("Finish is not idempotent\nfirst:  %s\nsecond: %s", ref, got)
	}

	// Cancellation: Finish mid-episode returns the partial bookkeeping.
	st2, err := NewStepper(cfg, stepperAgent(cfg), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := st2.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	partial, err := st2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if partial.Steps != 7 || partial.Reached || partial.Collided {
		t.Fatalf("mid-episode Finish: got %d steps (reached=%v collided=%v), want 7 open steps",
			partial.Steps, partial.Reached, partial.Collided)
	}
}

// TestStepperInjectedEventParity pins the StepInput contract boundary: an
// explicitly empty input is the identity (same bytes as Run), while an
// injected stale message must flow into the fusion filter and change the
// episode — proof the injection path is live, not silently dropped.
func TestStepperInjectedEventParity(t *testing.T) {
	cfg := goldenEpisodes()[2].Cfg // lost comms: injected V2V is the only channel input
	opts := Options{Seed: 9}
	want, err := Run(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustJSON(t, want)

	st, err := NewStepper(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		// Empty non-nil slices must behave exactly like the zero input.
		if _, err := st.Step(StepInput{Messages: []comms.Message{}, Readings: []sensor.Reading{}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); got != ref {
		t.Fatalf("empty injected slices diverged from Run\nrun:      %s\ninjected: %s", ref, got)
	}

	// A genuinely informative injected message must perturb the filter
	// state (the t=0 prior already equals the true initial state, so the
	// message has to carry news: a mid-episode report the lost channel
	// could never deliver).
	st2, err := NewStepper(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for !st2.Done() {
		in := StepInput{}
		if step == 10 {
			in.Messages = []comms.Message{{
				Sender: 1, T: float64(step) * cfg.Scenario.DtC,
				P: cfg.Scenario.OncomingInit.P + cfg.Scenario.OncomingInit.V*float64(step)*cfg.Scenario.DtC,
				V: cfg.Scenario.OncomingInit.V,
			}}
		}
		if _, err := st2.Step(in); err != nil {
			t.Fatal(err)
		}
		step++
	}
	res2, err := st2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res2); got == ref {
		t.Fatal("injected V2V message left the episode byte-identical; injection path appears dead")
	}
}

// TestStepperDropsOutOfRangeEvents pins the routing of streamed events on
// the left turn: its one oncoming vehicle is sender/target 1, and events
// naming any other index are ignored rather than fused into its filter.
func TestStepperDropsOutOfRangeEvents(t *testing.T) {
	cfg := goldenEpisodes()[2].Cfg // lost comms: a fused message would show
	opts := Options{Seed: 9}
	want, err := Run(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cfg, stepperAgent(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; !st.Done(); step++ {
		at := float64(step) * cfg.Scenario.DtC
		p := cfg.Scenario.OncomingInit.P + cfg.Scenario.OncomingInit.V*at
		in := StepInput{
			Messages: []comms.Message{{Sender: 0, T: at, P: p, V: 3}, {Sender: 2, T: at, P: p, V: 3}},
			Readings: []sensor.Reading{{Target: 0, T: at, P: p, V: 3}, {Target: 2, T: at, P: p, V: 3}},
		}
		if _, err := st.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("out-of-range events changed the episode\nrun:     %s\nstepper: %s", w, g)
	}
}
