package safeplan

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"safeplan/internal/telemetry"
)

// TestWithTraceDeterminism proves the traced options form is
// seed-deterministic byte-for-byte: two runs with the same seed produce
// identical results, including the full per-step trace.
func TestWithTraceDeterminism(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.Comms = DelayedComms(0.25, 0.3)
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewConservativeExpert(sc))

	a, err := RunEpisode(cfg, agent, 42, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEpisode(cfg, agent, 42, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	// %#v is a deterministic full serialization and, unlike JSON, survives
	// the NaN window bounds recorded on steps with no feasible window.
	ab := []byte(fmt.Sprintf("%#v", a))
	bb := []byte(fmt.Sprintf("%#v", b))
	if !bytes.Equal(ab, bb) {
		t.Fatalf("traced episode not seed-deterministic:\nfirst:  %s\nsecond: %s", ab, bb)
	}
	if len(a.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestWithWorkersValidation(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	agent := BuildPure(sc, NewConservativeExpert(sc))
	for _, n := range []int{0, -3} {
		_, err := RunCampaign(cfg, agent, 4, 1, WithWorkers(n))
		if err == nil {
			t.Fatalf("WithWorkers(%d) accepted", n)
		}
		if !strings.HasPrefix(err.Error(), "safeplan:") {
			t.Errorf("error not safeplan-prefixed: %v", err)
		}
	}
	if _, err := RunCampaign(cfg, agent, 4, 1, WithWorkers(2)); err != nil {
		t.Fatalf("WithWorkers(2) rejected: %v", err)
	}
}

// TestErrorsArePrefixed checks the satellite guarantee that every public
// entry point wraps internal errors with the "safeplan:" prefix.
func TestErrorsArePrefixed(t *testing.T) {
	sc := DefaultScenario()
	bad := DefaultSimConfig()
	bad.DtM = -1
	agent := BuildPure(sc, NewConservativeExpert(sc))

	if _, err := RunEpisode(bad, agent, 1); err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Errorf("RunEpisode: %v", err)
	}
	if _, err := RunCampaign(bad, agent, 4, 1); err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Errorf("RunCampaign: %v", err)
	}
	badMulti := DefaultMultiSimConfig()
	badMulti.Vehicles = 0
	magent := BuildMultiPure(sc, NewConservativeExpert(sc))
	if _, err := RunMultiCampaign(badMulti, magent, 4, 1); err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Errorf("RunMultiCampaign: %v", err)
	}
	cfsc := DefaultCarFollowScenario()
	badCF := DefaultCarFollowSimConfig()
	badCF.DtM = -1
	cfAgent := BuildCarFollowPure(cfsc, NewCarFollowConservativeExpert(cfsc))
	if _, err := RunCarFollowCampaign(badCF, cfAgent, 4, 1); err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Errorf("RunCarFollowCampaign: %v", err)
	}
	if _, err := NewStepper(bad, agent, 1); err == nil || !strings.HasPrefix(err.Error(), "safeplan:") {
		t.Errorf("NewStepper: %v", err)
	}
}

// TestCampaignCollector runs a 64-episode campaign through the public
// options API with a live collector (exercised under -race by `make
// check`) and checks the snapshot against the aggregate statistics.
func TestCampaignCollector(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewAggressiveExpert(sc))

	m := NewMetrics()
	var progressCalls atomic.Int64
	progress := ProgressFunc(func(done, total int64) { progressCalls.Add(1) })
	stats, err := RunCampaign(cfg, agent, 64, 1,
		WithCollector(MultiCollector(m, progress)),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Episodes != 64 || int(s.Episodes) != stats.N {
		t.Errorf("episodes = %d, stats N = %d", s.Episodes, stats.N)
	}
	if s.Reached != int64(stats.Reached) {
		t.Errorf("reached = %d, want %d", s.Reached, stats.Reached)
	}
	if s.ProgressDone != 64 {
		t.Errorf("progress = %d/%d", s.ProgressDone, s.ProgressTotal)
	}
	if progressCalls.Load() != 64 {
		t.Errorf("progress callback fired %d times, want 64", progressCalls.Load())
	}
	if len(s.MonitorReasons) == 0 {
		t.Error("compound agent reported no monitor reasons")
	}
	if s.MonitorReasons["kn"] == 0 {
		t.Errorf("κ_n never selected: %v", s.MonitorReasons)
	}
	if s.FusedWidth.Count == 0 || s.FusedWidth.Mean > s.SoundWidth.Mean {
		t.Errorf("fused estimate no tighter than sound: fused %v vs sound %v",
			s.FusedWidth.Mean, s.SoundWidth.Mean)
	}
}

// TestCarFollowCollectorAndTrace exercises the second scenario: trace
// recording through the CarFollowCampaign adapter and monitor-reason
// telemetry through RunCarFollowCampaign's options.
func TestCarFollowCollectorAndTrace(t *testing.T) {
	sc := DefaultCarFollowScenario()
	cfg := DefaultCarFollowSimConfig()
	cfg.InfoFilter = true
	agent := BuildCarFollowUltimate(sc, NewCarFollowAggressiveExpert(sc))

	r, err := CarFollowCampaign(cfg, agent)(EpisodeOptions{Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no car-following trace recorded")
	}
	if r.Trace[len(r.Trace)-1].T == 0 && len(r.Trace) > 1 {
		t.Error("trace timestamps not advancing")
	}

	m := NewMetrics()
	if _, err := RunCarFollowCampaign(cfg, agent, 16, 1, WithCollector(m)); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Episodes != 16 {
		t.Errorf("episodes = %d", s.Episodes)
	}
	var decisions int64
	for _, c := range s.MonitorReasons {
		decisions += c
	}
	if decisions != s.Steps {
		t.Errorf("monitor decisions %d != steps %d", decisions, s.Steps)
	}
}

// TestWithDisturbanceOption checks the disturbance config fields end to
// end: an invalid channel or sensing model is rejected with the safeplan:
// prefix, and a valid preset on Comms.Model changes the episode relative
// to the clean channel without breaking safety.
func TestWithDisturbanceOption(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	agent := BuildBasic(sc, NewConservativeExpert(sc))

	bad := cfg
	bad.Comms.Model = BurstLoss{PGoodBad: 2}
	if _, err := RunEpisode(bad, agent, 1); err == nil ||
		!strings.HasPrefix(err.Error(), "safeplan:") {
		t.Fatalf("invalid disturbance model accepted: %v", err)
	}
	bad = cfg
	bad.SensorDisturb = SensorBiasDrift{Max: 2}
	if _, err := RunEpisode(bad, agent, 1); err == nil ||
		!strings.HasPrefix(err.Error(), "safeplan:") {
		t.Fatalf("invalid sensor disturbance accepted: %v", err)
	}

	m, err := DisturbancePreset("blackout")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunEpisode(cfg, agent, 3)
	if err != nil {
		t.Fatal(err)
	}
	disturbedCfg := cfg
	disturbedCfg.Comms.Model = m
	disturbed, err := RunEpisode(disturbedCfg, agent, 3)
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.Collided {
		t.Fatal("compound planner collided under blackout schedule")
	}
	if disturbed.ReachTime == clean.ReachTime && disturbed.Steps == clean.Steps {
		t.Fatal("blackout disturbance had no effect on the episode")
	}
}

// TestDisturbancePresetsResolve pins the re-exported preset catalogue.
func TestDisturbancePresetsResolve(t *testing.T) {
	if len(DisturbancePresetNames()) == 0 || len(SensorDisturbancePresetNames()) == 0 {
		t.Fatal("empty preset catalogue")
	}
	for _, name := range DisturbancePresetNames() {
		if _, err := DisturbancePreset(name); err != nil {
			t.Errorf("preset %q: %v", name, err)
		}
	}
	for _, name := range SensorDisturbancePresetNames() {
		if _, err := SensorDisturbancePreset(name); err != nil {
			t.Errorf("sensor preset %q: %v", name, err)
		}
	}
	if _, err := DisturbancePreset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestCollectorDetachedOnReuse: a compound agent reused after a run with
// WithCollector must stop reporting into that collector once a later run
// attaches none.
func TestCollectorDetachedOnReuse(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewAggressiveExpert(sc))

	m := NewMetrics()
	if _, err := RunCampaign(cfg, agent, 20, 1, WithCollector(m)); err != nil {
		t.Fatal(err)
	}
	before, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(cfg, agent, 20, 100); err != nil {
		t.Fatal(err)
	}
	after, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a run without WithCollector still reported into the earlier collector:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestSharedAgentConcurrentCollectors runs two campaigns at once on one
// compound agent, each with its own collector: under -race neither call
// may write the shared agent, and each collector must count exactly the
// monitor decisions a solo run of the same campaign counts.
func TestSharedAgentConcurrentCollectors(t *testing.T) {
	sc := DefaultScenario()
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true
	agent := BuildUltimate(sc, NewAggressiveExpert(sc))

	solo := NewMetrics()
	if _, err := RunCampaign(cfg, agent, 30, 7, WithCollector(solo), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	want := solo.Snapshot().MonitorReasons
	if len(want) == 0 {
		t.Fatal("the solo run reported no monitor decisions")
	}

	ms := []*Metrics{NewMetrics(), NewMetrics()}
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Metrics) {
			defer wg.Done()
			_, errs[i] = RunCampaign(cfg, agent, 30, 7, WithCollector(m), WithWorkers(1))
		}(i, m)
	}
	wg.Wait()
	for i, m := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := m.Snapshot().MonitorReasons; !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent run %d counted monitor decisions %v, the solo run %v", i, got, want)
		}
	}
	if agent.Collector != nil {
		t.Fatalf("the caller's agent holds collector %v after the runs", agent.Collector)
	}
}

// TestMetricsWorkerCountParity runs one campaign at 1 and at 4 workers,
// with and without the planner guard under injected faults: the Metrics
// snapshots must be byte-identical once the wall-clock planner latency
// is zeroed.
func TestMetricsWorkerCountParity(t *testing.T) {
	sc := DefaultScenario()
	delayed := DefaultSimConfig()
	delayed.Comms = DelayedComms(0.25, 0.5)
	delayed.InfoFilter = true
	guarded := delayed
	gc := DefaultGuardConfig(sc.Ego)
	guarded.Guard = &gc
	fault, err := PlannerFaultPreset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	guarded.PlannerFault = fault
	for name, cfg := range map[string]SimConfig{"delayed": delayed, "guarded": guarded} {
		var dumps [][]byte
		for _, w := range []int{1, 4} {
			m := NewMetrics()
			if _, err := RunCampaign(cfg, BuildUltimate(sc, NewAggressiveExpert(sc)), 60, 3, WithCollector(m), WithWorkers(w)); err != nil {
				t.Fatal(err)
			}
			s := m.Snapshot()
			s.PlannerLatency = telemetry.HistogramSnapshot{}
			raw, err := s.JSON()
			if err != nil {
				t.Fatal(err)
			}
			dumps = append(dumps, raw)
		}
		if !bytes.Equal(dumps[0], dumps[1]) {
			t.Errorf("%s: 1 worker:\n%s\n4 workers:\n%s", name, dumps[0], dumps[1])
		}
	}
}
