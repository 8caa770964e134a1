package sim_test

// The campaign-level tests of the engine run through campaign.Results,
// the one campaign runner, from this external test package (campaign
// imports sim, so package sim's own tests cannot reach it).

import (
	"reflect"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// disturbedConfig returns the harshest preset pairing — the config most
// likely to expose worker-order or collector-dependent randomness in the
// disturbance threading.
func disturbedConfig(t *testing.T) sim.Config {
	t.Helper()
	cfg := sim.DefaultConfig()
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

// results runs a campaign through campaign.Results and fails the test on
// error.
func results(t *testing.T, spec campaign.Spec, ep campaign.EpisodeFunc) []sim.Result {
	t.Helper()
	rs, err := campaign.Results(spec, ep)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func consAgent(cfg sim.Config) core.Agent {
	return &core.PureNN{Cfg: cfg.Scenario, Planner: planner.ConservativeExpert(cfg.Scenario)}
}

// TestCampaignDeterministicAcrossWorkers: a campaign's results must be a
// pure function of (config, n, base seed) — the worker count only changes
// the execution order, never an episode's random streams or the order of
// the returned slice.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := disturbedConfig(t)
	run := func(workers int) []sim.Result {
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		return results(t, campaign.Spec{Episodes: detEpisodes, BaseSeed: detSeed, Workers: workers}, campaign.LeftTurn(cfg, agent))
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("campaign results differ between 1 and 8 workers")
	}
}

// TestMultiCampaignDeterministicAcrossWorkers is the multi-vehicle twin.
func TestMultiCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := sim.DefaultMultiConfig()
	cfg.Config = disturbedConfig(t)
	cfg.Horizon = 45
	run := func(workers int) []sim.Result {
		agent := core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		return results(t, campaign.Spec{Episodes: detEpisodes, BaseSeed: detSeed, Workers: workers}, campaign.MultiVehicle(cfg, agent))
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
	run := func(withCollector bool) []sim.Result {
		agent := core.NewUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
		spec := campaign.Spec{Episodes: detEpisodes, BaseSeed: detSeed}
		if withCollector {
			m := telemetry.NewMetrics()
			agent.Collector = m
			spec.Collector = m
		}
		return results(t, spec, campaign.LeftTurn(cfg, agent))
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
	spec := campaign.Spec{Episodes: detEpisodes, BaseSeed: detSeed}
	a := results(t, spec, campaign.LeftTurn(cfg, agent))
	b := results(t, spec, campaign.LeftTurn(cfg, agent))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("campaign not deterministic across identical invocations")
	}
}

// TestRunMultiCampaignDeterministic is the multi-vehicle twin.
func TestRunMultiCampaignDeterministic(t *testing.T) {
	cfg := sim.DefaultMultiConfig()
	cfg.Config = disturbedConfig(t)
	cfg.Horizon = 45
	agent := core.NewMultiUltimate(cfg.Scenario, planner.ConservativeExpert(cfg.Scenario))
	spec := campaign.Spec{Episodes: detEpisodes, BaseSeed: detSeed}
	a := results(t, spec, campaign.MultiVehicle(cfg, agent))
	b := results(t, spec, campaign.MultiVehicle(cfg, agent))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("multi campaign not deterministic across identical invocations")
	}
}

// TestRunCampaignPairsSeeds: campaign episode i must equal a direct run
// with seed BaseSeed+i.
func TestRunCampaignPairsSeeds(t *testing.T) {
	cfg := sim.DefaultConfig()
	rs := results(t, campaign.Spec{Episodes: 8, BaseSeed: 100}, campaign.LeftTurn(cfg, consAgent(cfg)))
	if len(rs) != 8 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		single, err := sim.Run(cfg, consAgent(cfg), sim.Options{Seed: 100 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReachTime != single.ReachTime || r.Steps != single.Steps {
			t.Fatalf("episode %d differs from single run", i)
		}
	}
}

func TestRunCampaignRejects(t *testing.T) {
	cfg := sim.DefaultConfig()
	if _, err := campaign.Results(campaign.Spec{Episodes: 0, BaseSeed: 1}, campaign.LeftTurn(cfg, consAgent(cfg))); err == nil {
		t.Fatal("zero episodes accepted")
	}
	cfg.DtM = 0
	if _, err := campaign.Results(campaign.Spec{Episodes: 1, BaseSeed: 1}, campaign.LeftTurn(cfg, consAgent(cfg))); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunMultiCampaignPairsSeeds(t *testing.T) {
	cfg := sim.DefaultMultiConfig()
	agent := func() core.MultiAgent {
		return core.NewMultiUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
	}
	rs := results(t, campaign.Spec{Episodes: 6, BaseSeed: 50}, campaign.MultiVehicle(cfg, agent()))
	if len(rs) != 6 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		single, err := sim.RunMulti(cfg, agent(), sim.Options{Seed: 50 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReachTime != single.ReachTime {
			t.Fatalf("episode %d differs from direct run", i)
		}
	}
	if _, err := campaign.Results(campaign.Spec{}, campaign.MultiVehicle(cfg, agent())); err == nil {
		t.Fatal("zero episodes accepted")
	}
}
