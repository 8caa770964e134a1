package carfollow

import (
	"encoding/json"
	"fmt"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

func cfJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStepperRunParity pins the car-following half of the ownership
// inversion: an externally driven Stepper — fresh and with a reused
// arena (the pooled-engine path) — must reproduce RunEpisode byte for
// byte under every disturbance shape the package exercises.
func TestStepperRunParity(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*SimConfig)
	}{
		{"perfect", func(*SimConfig) {}},
		{"delayed", func(c *SimConfig) { c.Comms = comms.Delayed(0.25, 0.5) }},
		{"lost", func(c *SimConfig) { c.Comms = comms.Lost() }},
	}
	reused := sim.NewScratch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simCfg()
			cfg.InfoFilter = true
			tc.mod(&cfg)
			agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
			for seed := int64(0); seed < 8; seed++ {
				want, err := RunEpisode(cfg, agent, sim.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				ref := cfJSON(t, want)
				for name, opts := range map[string]sim.Options{
					"fresh":  {Seed: seed},
					"pooled": {Seed: seed, Scratch: reused},
				} {
					st, err := NewStepper(cfg, agent, opts)
					if err != nil {
						t.Fatal(err)
					}
					for !st.Done() {
						if _, err := st.Step(sim.StepInput{}); err != nil {
							t.Fatal(err)
						}
					}
					res, err := st.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if got := cfJSON(t, res); got != ref {
						t.Fatalf("seed %d (%s): stepper-driven episode diverged from RunEpisode\nrun:     %s\nstepper: %s", seed, name, ref, got)
					}
				}
			}
		})
	}
}

// TestStepperFinishIdempotent pins Finish/past-the-end semantics on the
// carfollow engine (the sim-side contract test covers the leftturn one).
func TestStepperFinishIdempotent(t *testing.T) {
	cfg := simCfg()
	st, err := NewStepper(cfg, NewUltimate(cfg.Scenario, ConservativeExpert(cfg.Scenario)), sim.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(sim.StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := st.Step(sim.StepInput{}); err != nil || !out.Done {
		t.Fatalf("past-the-end step: out=%+v err=%v", out, err)
	}
	second, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfJSON(t, first) != cfJSON(t, second) {
		t.Fatalf("Finish is not idempotent\nfirst:  %s\nsecond: %s", cfJSON(t, first), cfJSON(t, second))
	}
}

// TestStepperDropsOutOfRangeEvents pins the routing of streamed events on
// the chain engine, the twin of the left turn's test in package sim:
// link ℓ carries vehicle ℓ+1's 1-based sender/target index, and events
// naming 0, one past the last link or one past the last vehicle are
// ignored rather than fused, so the episode is byte-equal to a zero
// input.  Car following (one link) follows the same rule.
func TestStepperDropsOutOfRangeEvents(t *testing.T) {
	cfg := simCfg()
	cfg.Comms = comms.Lost() // a fused message would show
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("vehicles-%d", n), func(t *testing.T) {
			ch := Chain{Vehicles: n, Spacing: 20, Follower: *ConservativeExpert(cfg.Scenario)}
			run := func(events bool) string {
				st, err := NewChainStepper(cfg, ch, agent, sim.Options{Seed: 9, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; !st.Done(); step++ {
					var in sim.StepInput
					if events {
						at := float64(step) * cfg.Scenario.DtC
						p := st.States()[0].P + 5
						for _, bad := range []int{0, n, n + 1} {
							in.Messages = append(in.Messages, comms.Message{Sender: bad, T: at, P: p, V: 3})
							in.Readings = append(in.Readings, sensor.Reading{Target: bad, T: at, P: p, V: 3})
						}
					}
					if _, err := st.Step(in); err != nil {
						t.Fatal(err)
					}
				}
				res, err := st.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%+v", res)
			}
			if want, got := run(false), run(true); got != want {
				t.Fatalf("out-of-range events changed the episode\nzero input: %s\nevents:     %s", want, got)
			}
		})
	}
}
