package sim

// Failure-injection tests: the safety guarantee must survive a flaky
// perception stack (dropped sensor readings), communication blackouts,
// and their combination — the situations the paper's title promises to
// handle.

import (
	"math/rand"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
)

func TestSensorDropProbValidated(t *testing.T) {
	cfg := baseConfig()
	cfg.SensorDropProb = 1.5
	if cfg.Validate() == nil {
		t.Fatal("sensor drop probability > 1 accepted")
	}
	cfg.SensorDropProb = -0.1
	if cfg.Validate() == nil {
		t.Fatal("negative sensor drop probability accepted")
	}
}

// outage is the delayed channel with a total blackout over [start, end).
func outage(start, end float64) comms.Config {
	delayed := comms.Delayed(0.25, 0.5).Model
	return comms.Disturbed(disturb.Schedule{Phases: []disturb.Phase{
		{Start: 0, Model: delayed}, {Start: start, Model: disturb.Blackout{}}, {Start: end, Model: delayed},
	}})
}

func TestOutageValidated(t *testing.T) {
	cfg := baseConfig()
	cfg.Comms = outage(3, 1)
	if cfg.Validate() == nil {
		t.Fatal("an outage ending before it starts accepted")
	}
}

func TestCommOutageDropsWindow(t *testing.T) {
	// Direct channel-level check: messages inside the blackout vanish.
	cfg := comms.Disturbed(disturb.Schedule{Phases: []disturb.Phase{{Start: 1, Model: disturb.Blackout{}}, {Start: 3, Model: disturb.None{}}}})
	ch, err := comms.NewChannel(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0.5, 1.0, 1.5, 2.9, 3.0, 3.5} {
		ch.Send(comms.Message{T: tm})
	}
	sent, dropped, _ := ch.Stats()
	if sent != 6 || dropped != 3 { // 1.0, 1.5, 2.9 are inside [1, 3)
		t.Fatalf("sent=%d dropped=%d, want 6/3", sent, dropped)
	}
}

func TestSafetyUnderFlakySensorsAndOutage(t *testing.T) {
	cfg := baseConfig()
	cfg.Comms = outage(2, 5)
	cfg.Sensor = sensor.Uniform(2)
	cfg.SensorDropProb = 0.5
	cfg.InfoFilter = true
	agent := core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
	for seed := int64(0); seed < 60; seed++ {
		r, err := Run(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			t.Fatalf("seed %d: collision under failure injection", seed)
		}
		if r.SoundViolations != 0 {
			// The sound estimate must stay sound no matter how little
			// information arrives.
			t.Fatalf("seed %d: %d sound-estimate violations", seed, r.SoundViolations)
		}
		if r.FusedIntervalMisses != 0 {
			// Fused (KF-side) misses are expected sharpening error; log them.
			t.Logf("seed %d: %d fused-estimate misses (KF side)", seed, r.FusedIntervalMisses)
		}
	}
}

func TestTotalBlackoutStillSafeAndLive(t *testing.T) {
	// Absolutely no information after t=0: no messages, every sensor
	// reading dropped.  The ego must remain safe (the sound estimate decays
	// to the full reachable set, freezing it before the zone) — and once
	// the oncoming vehicle could only be past the zone, it must proceed.
	cfg := baseConfig()
	cfg.Comms = comms.Lost()
	cfg.SensorDropProb = 1
	cfg.InfoFilter = true
	cfg.Horizon = 60
	agent := core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
	reached := 0
	for seed := int64(0); seed < 25; seed++ {
		r, err := Run(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			t.Fatalf("seed %d: collision under total blackout", seed)
		}
		if r.Reached {
			reached++
		}
	}
	// With zero information the conservative window only empties when the
	// oncoming vehicle must have cleared (its position lower bound passes
	// the back line: from the t=0 handshake, even the slowest admissible
	// behaviour is bounded below only by VMin=0 — so the window never
	// empties and the ego waits forever short of the zone.  Liveness under
	// total blackout therefore cannot be expected; safety is the claim.
	t.Logf("reached under total blackout: %d/25 (waiting forever is the sound behaviour)", reached)
}
