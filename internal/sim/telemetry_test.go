package sim_test

import (
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/leftturn"
	"safeplan/internal/planner"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

// TestRunCampaignCollector attaches a live collector to a 64-episode
// campaign (exercised with -race in CI via `make check`) and cross-checks
// the collector's counters against the returned results.
func TestRunCampaignCollector(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.InfoFilter = true
	sc := leftturn.DefaultConfig()
	agent := core.NewUltimate(sc, planner.ConservativeExpert(sc))
	m := telemetry.NewMetrics()
	agent.Collector = m

	const n = 64
	rs := results(t, campaign.Spec{Episodes: n, BaseSeed: 100, Collector: m}, campaign.LeftTurn(cfg, agent))
	var steps, emergency, reached int
	for _, r := range rs {
		steps += r.Steps
		emergency += r.EmergencySteps
		if r.Reached {
			reached++
		}
	}
	s := m.Snapshot()
	if s.Episodes != n {
		t.Errorf("episodes = %d, want %d", s.Episodes, n)
	}
	if s.Steps != int64(steps) {
		t.Errorf("steps = %d, want %d", s.Steps, steps)
	}
	if s.EmergencySteps != int64(emergency) {
		t.Errorf("emergency steps = %d, want %d", s.EmergencySteps, emergency)
	}
	if s.Reached != int64(reached) {
		t.Errorf("reached = %d, want %d", s.Reached, reached)
	}
	if s.ProgressDone != n || s.ProgressTotal != n {
		t.Errorf("progress = %d/%d, want %d/%d", s.ProgressDone, s.ProgressTotal, n, n)
	}
	// The compound agent reports exactly one monitor decision per step.
	var decisions int64
	for _, c := range s.MonitorReasons {
		decisions += c
	}
	if decisions != int64(steps) {
		t.Errorf("monitor decisions = %d, want %d", decisions, steps)
	}
	if s.SoundWidth.Count != int64(steps) || s.FusedWidth.Count != int64(steps) {
		t.Errorf("width observations = %d/%d, want %d", s.SoundWidth.Count, s.FusedWidth.Count, steps)
	}
	if s.PlannerLatency.Count == 0 {
		t.Error("no planner latency recorded")
	}
}

func TestRunCampaignRejectsNegativeWorkers(t *testing.T) {
	cfg := sim.DefaultConfig()
	sc := leftturn.DefaultConfig()
	agent := &core.PureNN{Cfg: sc, Planner: planner.ConservativeExpert(sc)}
	if _, err := campaign.Results(campaign.Spec{Episodes: 4, Workers: -1}, campaign.LeftTurn(cfg, agent)); err == nil {
		t.Fatal("negative worker count accepted")
	}
}

func TestRunCampaignWorkerBound(t *testing.T) {
	cfg := sim.DefaultConfig()
	sc := leftturn.DefaultConfig()
	agent := &core.PureNN{Cfg: sc, Planner: planner.ConservativeExpert(sc)}
	// Sequential (Workers: 1) must agree with the parallel default —
	// episodes are seed-deterministic and index-disjoint.
	seq := results(t, campaign.Spec{Episodes: 8, BaseSeed: 7, Workers: 1}, campaign.LeftTurn(cfg, agent))
	par := results(t, campaign.Spec{Episodes: 8, BaseSeed: 7}, campaign.LeftTurn(cfg, agent))
	for i := range seq {
		if seq[i].Eta != par[i].Eta || seq[i].Steps != par[i].Steps {
			t.Fatalf("episode %d differs across worker counts: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestRunMultiCampaignCollector(t *testing.T) {
	cfg := sim.DefaultMultiConfig()
	cfg.Vehicles = 2
	cfg.InfoFilter = true
	sc := leftturn.DefaultConfig()
	agent := core.NewMultiUltimate(sc, planner.ConservativeExpert(sc))
	m := telemetry.NewMetrics()
	agent.Collector = m

	rs := results(t, campaign.Spec{Episodes: 8, BaseSeed: 3, Collector: m}, campaign.MultiVehicle(cfg, agent))
	var steps int
	for _, r := range rs {
		steps += r.Steps
	}
	s := m.Snapshot()
	if s.Episodes != 8 {
		t.Errorf("episodes = %d", s.Episodes)
	}
	if s.Steps != int64(steps) {
		t.Errorf("steps = %d, want %d", s.Steps, steps)
	}
	var decisions int64
	for _, c := range s.MonitorReasons {
		decisions += c
	}
	if decisions != int64(steps) {
		t.Errorf("monitor decisions = %d, want %d", decisions, steps)
	}
}
