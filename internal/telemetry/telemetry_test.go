package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bucket i counts v <= bounds[i]: {0.5, 1} | {1.5, 2} | {3, 4} | {5, 100}.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], w)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	wantMean := (0.5 + 1 + 1.5 + 2 + 3 + 4 + 5 + 100) / 8
	if math.Abs(s.Mean-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
}

func TestHistogramIgnoresNonFinite(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 0 {
		t.Fatalf("non-finite observations counted: %d", h.Count())
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.OnStep(StepProbe{Emergency: true, SoundWidth: 1, FusedWidth: 0.5, ConsWidth: 2, AggrWidth: 3, PlannerNs: 1500})
	m.OnStep(StepProbe{SoundWidth: 2, FusedWidth: 1})
	m.OnMonitorDecision(ReasonPlanner)
	m.OnMonitorDecision(ReasonBoundary)
	m.OnMonitorDecision("mystery")
	m.OnEpisode(EpisodeOutcome{Reached: true, Eta: 0.2, Steps: 2, FusedIntervalMisses: 1})
	m.OnEpisode(EpisodeOutcome{Collided: true, Eta: -1})
	m.OnEpisode(EpisodeOutcome{})
	m.OnProgress(3, 10)

	s := m.Snapshot()
	if s.Episodes != 3 || s.Reached != 1 || s.Collided != 1 || s.Timeouts != 1 {
		t.Errorf("episode counters: %+v", s)
	}
	if s.Steps != 2 || s.EmergencySteps != 1 {
		t.Errorf("step counters: steps=%d emergency=%d", s.Steps, s.EmergencySteps)
	}
	if s.EmergencyRate != 0.5 {
		t.Errorf("emergency rate = %v", s.EmergencyRate)
	}
	if math.Abs(s.MeanEta-(0.2-1)/3) > 1e-12 {
		t.Errorf("mean eta = %v", s.MeanEta)
	}
	if s.FusedIntervalMisses != 1 {
		t.Errorf("fused interval misses = %d", s.FusedIntervalMisses)
	}
	if s.SoundViolations != 0 {
		t.Errorf("sound violations = %d", s.SoundViolations)
	}
	if s.MonitorReasons[ReasonPlanner] != 1 || s.MonitorReasons[ReasonBoundary] != 1 || s.MonitorReasons["other"] != 1 {
		t.Errorf("monitor reasons = %v", s.MonitorReasons)
	}
	if s.SoundWidth.Count != 2 || s.FusedWidth.Count != 2 {
		t.Errorf("width histogram counts: %d/%d", s.SoundWidth.Count, s.FusedWidth.Count)
	}
	if s.PlannerLatency.Count != 1 {
		t.Errorf("latency count = %d", s.PlannerLatency.Count)
	}
	if s.ProgressDone != 3 || s.ProgressTotal != 10 {
		t.Errorf("progress = %d/%d", s.ProgressDone, s.ProgressTotal)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.OnStep(StepProbe{Emergency: i%2 == 0, SoundWidth: float64(i % 7), FusedWidth: 0.5, PlannerNs: int64(i + 1)})
				m.OnMonitorDecision(ReasonPlanner)
			}
			m.OnEpisode(EpisodeOutcome{Reached: true, Eta: 1, Steps: perWorker})
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Steps != workers*perWorker {
		t.Errorf("steps = %d, want %d", s.Steps, workers*perWorker)
	}
	if s.EmergencySteps != workers*perWorker/2 {
		t.Errorf("emergency steps = %d", s.EmergencySteps)
	}
	if s.Episodes != workers || s.Reached != workers {
		t.Errorf("episodes = %d reached = %d", s.Episodes, s.Reached)
	}
	if s.MonitorReasons[ReasonPlanner] != workers*perWorker {
		t.Errorf("reasons = %v", s.MonitorReasons)
	}
	if s.SoundWidth.Count != int64(workers*perWorker) {
		t.Errorf("histogram count = %d", s.SoundWidth.Count)
	}
	var bucketSum int64
	for _, b := range s.SoundWidth.Buckets {
		bucketSum += b
	}
	if bucketSum != s.SoundWidth.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.SoundWidth.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.OnStep(StepProbe{SoundWidth: 1, FusedWidth: 0.5, PlannerNs: 2000})
	m.OnEpisode(EpisodeOutcome{Reached: true, Eta: 0.1, Steps: 1})
	out, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Episodes != 1 || back.Steps != 1 || back.SoundWidth.Count != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestSnapshotText(t *testing.T) {
	m := NewMetrics()
	m.OnStep(StepProbe{Emergency: true, SoundWidth: 1, FusedWidth: 0.5})
	m.OnMonitorDecision(ReasonBoundary)
	m.OnEpisode(EpisodeOutcome{Collided: true, Eta: -1, Steps: 1})
	text := m.Snapshot().Text()
	for _, want := range []string{"episodes:", "collided 1", "boundary=1", "sound width"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
}

func TestMultiAndProgressFunc(t *testing.T) {
	m := NewMetrics()
	var calls int
	p := ProgressFunc(func(done, total int64) { calls++ })
	c := Multi(m, nil, p)
	c.OnStep(StepProbe{SoundWidth: 1})
	c.OnMonitorDecision(ReasonHold)
	c.OnEpisode(EpisodeOutcome{Reached: true})
	c.OnProgress(1, 2)
	if calls != 1 {
		t.Errorf("progress calls = %d", calls)
	}
	s := m.Snapshot()
	if s.Steps != 1 || s.Episodes != 1 || s.MonitorReasons[ReasonHold] != 1 {
		t.Errorf("multi did not fan out: %+v", s)
	}
	if s.ProgressDone != 1 {
		t.Errorf("progress not forwarded: %d", s.ProgressDone)
	}
	// Degenerate bundles collapse.
	if _, ok := Multi().(Nop); !ok {
		t.Error("empty Multi is not Nop")
	}
	if Multi(m) != Collector(m) {
		t.Error("single-element Multi did not collapse")
	}
}

func TestNopIsCollector(t *testing.T) {
	var c Collector = Nop{}
	c.OnStep(StepProbe{})
	c.OnMonitorDecision(ReasonPlanner)
	c.OnEpisode(EpisodeOutcome{})
	c.OnProgress(0, 0)
}

// TestMeansIndependentOfOrder observes {0.1, 0.2, 0.3} in two orders: a
// floating-point sum gives 0.20000000000000004 and 0.19999999999999998,
// the fixed-point sums give one mean, for a histogram and for η.
func TestMeansIndependentOfOrder(t *testing.T) {
	orders := [][]float64{{0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}}
	var hist, eta []float64
	for _, vs := range orders {
		h := NewHistogram(DefaultWidthBounds...)
		m := NewMetrics()
		for _, v := range vs {
			h.Observe(v)
			m.OnEpisode(EpisodeOutcome{Reached: true, Eta: v})
		}
		hist = append(hist, h.Snapshot().Mean)
		eta = append(eta, m.Snapshot().MeanEta)
	}
	if hist[0] != hist[1] || eta[0] != eta[1] {
		t.Fatalf("histogram means %v, η means %v: the order changed them", hist, eta)
	}
	if math.Abs(hist[0]-0.2) > 1e-7 || math.Abs(eta[0]-0.2) > 1e-12 {
		t.Fatalf("histogram mean %v, η mean %v, want 0.2", hist[0], eta[0])
	}
}
