package sim

import (
	"reflect"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/telemetry"
)

// disturbedConfig returns the harshest preset pairing — the config most
// likely to expose worker-order or collector-dependent randomness in the
// disturbance threading.
func disturbedConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	m, err := disturb.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := disturb.SensorPreset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Comms = comms.Disturbed(m)
	cfg.SensorDisturb = sm
	cfg.InfoFilter = true
	return cfg
}

const (
	detEpisodes = 64
	detSeed     = 5
)

// TestCampaignDeterministicAcrossWorkers: a campaign's results must be a
// pure function of (config, n, base seed) — the worker count only changes
// the execution order, never an episode's random streams or the order of
// the returned slice.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := disturbedConfig(t)
	run := func(workers int) []Result {
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		rs, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed, Workers: workers}, leftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("campaign results differ between 1 and 8 workers")
	}
}

// TestMultiCampaignDeterministicAcrossWorkers is the multi-vehicle twin.
func TestMultiCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultMultiConfig()
	cfg.Config = disturbedConfig(t)
	cfg.Horizon = 45
	run := func(workers int) []Result {
		agent := core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		rs, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed, Workers: workers}, multiVehicle(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("multi campaign results differ between 1 and 8 workers")
	}
}

// TestCampaignCollectorInvariance: attaching a telemetry collector must
// not perturb any episode (telemetry only observes; it never draws from
// the episode's random streams).
func TestCampaignCollectorInvariance(t *testing.T) {
	cfg := disturbedConfig(t)
	run := func(withCollector bool) []Result {
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		o := CampaignOptions{BaseSeed: detSeed}
		if withCollector {
			m := telemetry.NewMetrics()
			agent.SetCollector(m)
			o.Collector = m
		}
		rs, err := RunCampaign(detEpisodes, o, leftTurn(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	if a, b := run(false), run(true); !reflect.DeepEqual(a, b) {
		t.Fatal("campaign results differ with a collector attached")
	}
}

// TestRunCampaignDeterministic pins campaign determinism: two campaigns
// over the same seeds must return identical results.
func TestRunCampaignDeterministic(t *testing.T) {
	cfg := disturbedConfig(t)
	agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
	a, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed}, leftTurn(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed}, leftTurn(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunCampaign not deterministic across identical invocations")
	}
}

// TestRunMultiCampaignDeterministic is the multi-vehicle twin.
func TestRunMultiCampaignDeterministic(t *testing.T) {
	cfg := DefaultMultiConfig()
	cfg.Config = disturbedConfig(t)
	cfg.Horizon = 45
	agent := core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
	a, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed}, multiVehicle(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(detEpisodes, CampaignOptions{BaseSeed: detSeed}, multiVehicle(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunMultiCampaign not deterministic across identical invocations")
	}
}
