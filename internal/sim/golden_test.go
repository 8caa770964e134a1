package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
	"safeplan/internal/telemetry"
)

var update = flag.Bool("update", false, "re-bless the golden trace files")

// goldenRow is one step of a golden trace: the closed-loop state, the
// monitor's selection, and the chosen acceleration.  Floats marshal with
// Go's shortest-round-trip formatting, so the encoding is byte-exact and
// any behavioural drift — RNG stream reordering, filter changes, monitor
// retuning — shows up as a diff.
type goldenRow struct {
	T         float64 `json:"t"`
	EgoP      float64 `json:"ego_p"`
	EgoV      float64 `json:"ego_v"`
	EgoA      float64 `json:"ego_a"`
	OncP      float64 `json:"onc_p"`
	OncV      float64 `json:"onc_v"`
	Reason    string  `json:"reason"`
	Emergency bool    `json:"emergency"`
}

// reasonRecorder captures the per-step monitor selections in order.  The
// compound planner reports exactly one decision per control step, so the
// i-th reason aligns with the i-th trace sample.
type reasonRecorder struct {
	telemetry.Nop
	mu      sync.Mutex
	reasons []string
}

func (r *reasonRecorder) OnMonitorDecision(reason string) {
	r.mu.Lock()
	r.reasons = append(r.reasons, reason)
	r.mu.Unlock()
}

// goldenEpisodes are the three canonical paper settings plus the bursty
// Gilbert–Elliott disturbance preset, run with the ultimate compound
// planner (conservative κ_n) under a fixed seed.
func goldenEpisodes() []struct {
	Name string
	Cfg  Config
} {
	none := DefaultConfig()
	delayed := DefaultConfig()
	delayed.Comms = comms.Delayed(0.25, 0.5)
	lost := DefaultConfig()
	lost.Comms = comms.Lost()
	lost.Sensor = sensor.Uniform(2)
	burst := DefaultConfig()
	bm, err := disturb.Preset("burst")
	if err != nil {
		panic(err)
	}
	burst.Comms = comms.Disturbed(bm)
	for _, c := range []*Config{&none, &delayed, &lost, &burst} {
		c.InfoFilter = true
	}
	return []struct {
		Name string
		Cfg  Config
	}{
		{"none", none},
		{"delayed", delayed},
		{"lost", lost},
		{"burst", burst},
	}
}

const goldenSeed = 11

// goldenTrace runs one canonical episode and renders its golden rows.
func goldenTrace(t *testing.T, cfg Config) []byte {
	t.Helper()
	sc := cfg.Scenario
	agent := core.NewUltimate(sc, planner.ConservativeExpert(sc))
	rec := &reasonRecorder{}
	agent.Collector = rec
	res, err := Run(cfg, agent, Options{Seed: goldenSeed, Trace: true, Collector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.reasons) != len(res.Trace) {
		t.Fatalf("recorded %d monitor decisions for %d trace steps", len(rec.reasons), len(res.Trace))
	}
	rows := make([]goldenRow, len(res.Trace))
	for i, s := range res.Trace {
		rows[i] = goldenRow{
			T:    s.T,
			EgoP: s.EgoP, EgoV: s.EgoV, EgoA: s.EgoA,
			OncP: s.OncP, OncV: s.OncV,
			Reason:    rec.reasons[i],
			Emergency: s.Emergency,
		}
	}
	out, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenTraces replays the canonical episodes and byte-compares them
// against the blessed traces in testdata/.  Run with -update to re-bless
// after an intentional behaviour change.
func TestGoldenTraces(t *testing.T) {
	for _, ep := range goldenEpisodes() {
		ep := ep
		t.Run(ep.Name, func(t *testing.T) {
			got := goldenTrace(t, ep.Cfg)
			path := filepath.Join("testdata", "golden_"+ep.Name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/sim -run TestGolden -update` to bless)", err)
			}
			if !bytes.Equal(got, want) {
				diffAt := 0
				for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
					diffAt++
				}
				lo, hi := diffAt-80, diffAt+80
				if lo < 0 {
					lo = 0
				}
				if hi > len(got) {
					hi = len(got)
				}
				t.Fatalf("golden trace %q drifted at byte %d:\n got … %s …\nre-bless with -update only if the change is intentional",
					ep.Name, diffAt, got[lo:hi])
			}
		})
	}
}

// TestGoldenTraceStableAcrossTelemetry guards the collector-neutrality
// contract the goldens rely on: attaching a telemetry collector must not
// change a single byte of the episode's behaviour.
func TestGoldenTraceStableAcrossTelemetry(t *testing.T) {
	ep := goldenEpisodes()[1] // the delayed setting exercises all streams
	sc := ep.Cfg.Scenario

	run := func(withCollector bool) []Sample {
		agent := core.NewUltimate(sc, planner.ConservativeExpert(sc))
		opts := Options{Seed: goldenSeed, Trace: true}
		if withCollector {
			m := telemetry.NewMetrics()
			agent.Collector = m
			opts.Collector = m
		}
		res, err := Run(ep.Cfg, agent, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Compare formatted values: Sample holds NaN placeholders (MeasP
		// before the first reading), and NaN != NaN under ==.
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("step %d differs with telemetry attached: %+v vs %+v", i, a[i], b[i])
		}
	}
}
