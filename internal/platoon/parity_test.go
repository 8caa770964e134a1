package platoon

import (
	"encoding/json"
	"fmt"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

func pJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pDump renders a full Result, trace included, for exact comparison.
// Traces hold NaN placeholders (MeasP before the first reading), which
// JSON cannot carry and which compare unequal under ==; the formatted
// rendering is exact for every other value and stable for NaN.
func pDump(v any) string { return fmt.Sprintf("%+v", v) }

// parityCases are the disturbance shapes the byte-parity differential
// covers: every channel family, adversarial bursts, sensing faults, and
// the fault-injection guard.
func parityCases(t *testing.T) []struct {
	name string
	mod  func(*carfollow.SimConfig)
} {
	t.Helper()
	burst, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		mod  func(*carfollow.SimConfig)
	}{
		{"perfect", func(*carfollow.SimConfig) {}},
		{"delayed", func(c *carfollow.SimConfig) { c.Comms = comms.Delayed(0.25, 0.5); c.InfoFilter = true }},
		{"lost", func(c *carfollow.SimConfig) { c.Comms = comms.Lost(); c.Sensor = sensor.Uniform(2) }},
		{"burst", func(c *carfollow.SimConfig) { c.Comms = comms.Disturbed(burst); c.InfoFilter = true }},
		{"sensor-fault", func(c *carfollow.SimConfig) {
			c.Comms = comms.Lost()
			c.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}
		}},
	}
}

// TestTwoVehicleByteParity is the differential gate: a two-vehicle
// platoon must reproduce the car-following episode byte for byte at
// matched config and seed — full Result including the trace — under
// every disturbance shape, on both the fresh and the pooled-arena paths.
// Both scenarios run on the one chain engine, so this pins that a
// two-vehicle SimConfig resolves to the car-following chain; the
// car-following goldens pin the episode bytes themselves.
func TestTwoVehicleByteParity(t *testing.T) {
	reused := sim.NewScratch()
	for _, tc := range parityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cf := carfollow.DefaultSimConfig()
			tc.mod(&cf)
			agent := carfollow.NewUltimate(cf.Scenario, carfollow.AggressiveExpert(cf.Scenario))
			pcfg := SimConfig{SimConfig: cf, Vehicles: 2}
			for seed := int64(0); seed < 6; seed++ {
				want, err := carfollow.RunEpisode(cf, agent, sim.Options{Seed: seed, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				ref := pDump(want)
				for name, opts := range map[string]sim.Options{
					"fresh":  {Seed: seed, Trace: true},
					"pooled": {Seed: seed, Trace: true, Scratch: reused},
				} {
					got, err := RunEpisode(pcfg, agent, opts)
					if err != nil {
						t.Fatal(err)
					}
					if g := pDump(got); g != ref {
						t.Fatalf("seed %d (%s): two-vehicle platoon diverged from carfollow\ncarfollow: %s\nplatoon:   %s",
							seed, name, ref, g)
					}
				}
				// Untraced results must also serialize to identical JSON —
				// in particular, a two-vehicle platoon must not emit the
				// Links block the longer chains carry.
				cw, err := carfollow.RunEpisode(cf, agent, sim.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				pw, err := RunEpisode(pcfg, agent, sim.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if a, b := pJSON(t, cw), pJSON(t, pw); a != b {
					t.Fatalf("seed %d: JSON serialization diverged\ncarfollow: %s\nplatoon:   %s", seed, a, b)
				}
			}
		})
	}
}

// TestTwoVehicleParityWithInvariants repeats the differential with the
// safety invariants attached, pinning that the invariant plumbing (step
// payloads, episode checks) does not perturb the episode either.
func TestTwoVehicleParityWithInvariants(t *testing.T) {
	cf := carfollow.DefaultSimConfig()
	cf.Comms = comms.Delayed(0.25, 0.5)
	cf.InfoFilter = true
	agent := carfollow.NewUltimate(cf.Scenario, carfollow.AggressiveExpert(cf.Scenario))
	pcfg := SimConfig{SimConfig: cf, Vehicles: 2}
	invs := []sim.Invariant{
		sim.NoCollision{},
		sim.SoundEstimate{},
		carfollow.TrueSlack{Cfg: cf.Scenario},
		StringStability{},
	}
	for seed := int64(20); seed < 26; seed++ {
		want, err := carfollow.RunEpisode(cf, agent, sim.Options{Seed: seed, Trace: true, Invariants: invs[:3]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunEpisode(pcfg, agent, sim.Options{Seed: seed, Trace: true, Invariants: invs})
		if err != nil {
			t.Fatal(err)
		}
		if pDump(want) != pDump(got) {
			t.Fatalf("seed %d: invariant-checked platoon episode diverged from carfollow", seed)
		}
	}
}

// TestStepperFinishIdempotent pins Finish/past-the-end semantics on the
// platoon engine.
func TestStepperFinishIdempotent(t *testing.T) {
	cfg := DefaultSimConfig()
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.ConservativeExpert(cfg.Scenario))
	st, err := NewStepper(cfg, agent, sim.Options{Seed: 2})
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
	if pDump(first) != pDump(second) {
		t.Fatalf("Finish is not idempotent\nfirst:  %s\nsecond: %s", pDump(first), pDump(second))
	}
}

// TestStepperRunParity pins the externally driven engine against the
// closed RunEpisode loop on a four-vehicle chain, fresh and pooled.
func TestStepperRunParity(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.AggressiveExpert(cfg.Scenario))
	reused := sim.NewScratch()
	for seed := int64(0); seed < 6; seed++ {
		want, err := RunEpisode(cfg, agent, sim.Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := pDump(want)
		for name, opts := range map[string]sim.Options{
			"fresh":  {Seed: seed, Trace: true},
			"pooled": {Seed: seed, Trace: true, Scratch: reused},
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
			if got := pDump(res); got != ref {
				t.Fatalf("seed %d (%s): stepper-driven episode diverged from RunEpisode", seed, name)
			}
		}
	}
}
