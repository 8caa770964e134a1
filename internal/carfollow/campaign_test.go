package carfollow_test

// The car-following campaign tests run through campaign.Results, the one
// campaign runner, from this external test package (campaign imports
// carfollow, so package carfollow's own tests cannot reach it).

import (
	"reflect"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sim"
)

func results(t *testing.T, spec campaign.Spec, cfg carfollow.SimConfig, agent carfollow.Agent) []sim.Result {
	t.Helper()
	rs, err := campaign.Results(spec, campaign.CarFollow(cfg, agent))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// worstComms returns the default config under the "worst" channel preset.
func worstComms(t *testing.T) carfollow.SimConfig {
	t.Helper()
	cfg := carfollow.DefaultSimConfig()
	m, err := disturb.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Comms = comms.Disturbed(m)
	return cfg
}

func TestRunCampaignPairsSeeds(t *testing.T) {
	cfg := carfollow.DefaultSimConfig()
	agent := &carfollow.Pure{Cfg: cfg.Scenario, Planner: carfollow.ConservativeExpert(cfg.Scenario)}
	rs := results(t, campaign.Spec{Episodes: 5, BaseSeed: 30}, cfg, agent)
	for i, r := range rs {
		single, err := carfollow.RunEpisode(cfg, agent, sim.Options{Seed: 30 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReachTime != single.ReachTime {
			t.Fatalf("episode %d differs from direct run", i)
		}
	}
	if _, err := campaign.Results(campaign.Spec{}, campaign.CarFollow(cfg, agent)); err == nil {
		t.Fatal("zero episodes accepted")
	}
}

// TestRunCampaignDeterministic pins campaign determinism under an
// adversarial disturbance: identical invocations must yield identical
// results.
func TestRunCampaignDeterministic(t *testing.T) {
	cfg := worstComms(t)
	cfg.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}
	cfg.InfoFilter = true
	agent := carfollow.NewUltimate(cfg.Scenario, carfollow.AggressiveExpert(cfg.Scenario))
	spec := campaign.Spec{Episodes: 24, BaseSeed: 7}
	if a, b := results(t, spec, cfg, agent), results(t, spec, cfg, agent); !reflect.DeepEqual(a, b) {
		t.Fatal("car-following campaign not deterministic")
	}
}

// TestCampaignDeterministicAcrossWorkers: the worker count must not leak
// into any episode's random streams.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := worstComms(t)
	cfg.SensorDisturb = disturb.SensorDropout{PGoodBad: 0.04, PBadGood: 0.15, DropBad: 0.95}
	run := func(workers int) []sim.Result {
		agent := carfollow.NewBasic(cfg.Scenario, carfollow.ConservativeExpert(cfg.Scenario))
		return results(t, campaign.Spec{Episodes: 24, BaseSeed: 7, Workers: workers}, cfg, agent)
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("car-following campaign differs between 1 and 8 workers")
	}
}
