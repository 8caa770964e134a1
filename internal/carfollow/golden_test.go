package carfollow

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

var update = flag.Bool("update", false, "re-bless the golden trace files")

// goldenRow is one subsampled step of a car-following golden trace: the
// true states, the fused and sound estimates of the lead, the latest
// reading and the chosen command.  Floats marshal with Go's
// shortest-round-trip formatting, so the encoding is byte-exact and any
// behavioural drift — RNG stream reordering, filter changes, monitor or
// guard retuning — shows up as a diff.
type goldenRow struct {
	T     float64  `json:"t"`
	EgoP  float64  `json:"ego_p"`
	EgoV  float64  `json:"ego_v"`
	EgoA  float64  `json:"ego_a"`
	LeadP float64  `json:"lead_p"`
	LeadV float64  `json:"lead_v"`
	LeadA float64  `json:"lead_a"`
	MeasP *float64 `json:"meas_p"` // null before the first reading
	EstP  float64  `json:"est_p"`
	EstV  float64  `json:"est_v"`
	PLo   float64  `json:"p_lo"`
	PHi   float64  `json:"p_hi"`
	SPLo  float64  `json:"sound_p_lo"`
	SPHi  float64  `json:"sound_p_hi"`
	SVLo  float64  `json:"sound_v_lo"`
	SVHi  float64  `json:"sound_v_hi"`
	Emerg bool     `json:"emergency"`
}

// golden is one blessed episode: the subsampled trace plus the whole
// terminal Result (counters, guard statistics) with its trace stripped,
// and, for the cases run with a collector, every probe the episode emits.
type golden struct {
	Rows   []goldenRow `json:"rows"`
	Result sim.Result  `json:"result"`
	probeStreams
}

// probeStreams holds an episode's telemetry streams rendered with %+v:
// the per-step probes (wall-clock PlannerNs zeroed), the monitor
// decisions, the guard events and the episode outcome.
type probeStreams struct {
	Probes  []string `json:"probes,omitempty"`
	Reasons []string `json:"reasons,omitempty"`
	Guard   []string `json:"guard,omitempty"`
	Episode []string `json:"episode,omitempty"`
}

// streamRecorder is a collector that fills a probeStreams.
type streamRecorder struct {
	telemetry.Nop
	probeStreams
}

func (r *streamRecorder) OnStep(p telemetry.StepProbe) {
	p.PlannerNs = 0
	r.Probes = append(r.Probes, fmt.Sprintf("%+v", p))
}
func (r *streamRecorder) OnMonitorDecision(reason string) { r.Reasons = append(r.Reasons, reason) }
func (r *streamRecorder) OnGuardEvent(e telemetry.GuardEvent) {
	r.Guard = append(r.Guard, fmt.Sprintf("%+v", e))
}
func (r *streamRecorder) OnEpisode(o telemetry.EpisodeOutcome) {
	r.Episode = append(r.Episode, fmt.Sprintf("%+v", o))
}

const goldenSeed = 11

// goldenCase is one blessed car-following episode.  Probe runs it with a
// collector and the campaign invariant set, and pins the telemetry
// streams too.
type goldenCase struct {
	Name  string
	Cfg   SimConfig
	Probe bool
}

// goldenCases cover every input path of the car-following engine: the
// three paper channel settings, the adversarial burst preset, a sensing
// fault, the guard under injected NaN planner output, a scripted lead
// that brakes hard mid-course, and the guard under a flaky planner with
// a collector and the invariants attached.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	perfect := DefaultSimConfig()

	delayed := DefaultSimConfig()
	delayed.Comms = comms.Delayed(0.25, 0.5)
	delayed.InfoFilter = true

	lost := DefaultSimConfig()
	lost.Comms = comms.Lost()
	lost.Sensor = sensor.Uniform(2)

	burst := DefaultSimConfig()
	bm, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	burst.Comms = comms.Disturbed(bm)
	burst.InfoFilter = true

	bias := DefaultSimConfig()
	bias.Comms = comms.Lost()
	bias.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}

	nan := DefaultSimConfig()
	nan.InfoFilter = true
	gc := guard.DefaultConfig(nan.Scenario.Ego)
	nan.Guard = &gc
	if nan.PlannerFault, err = faultinject.Preset("nan"); err != nil {
		t.Fatal(err)
	}

	script := DefaultSimConfig()
	script.Comms = comms.Delayed(0.25, 0.5)
	script.InfoFilter = true
	script.LeadScript = make([]float64, 400)
	for i := range script.LeadScript {
		switch {
		case i < 100:
			script.LeadScript[i] = 1
		case i < 160:
			script.LeadScript[i] = -6
		case i < 260:
			script.LeadScript[i] = 2
		}
	}

	probe := DefaultSimConfig()
	probe.Comms = comms.Delayed(0.25, 0.5)
	probe.InfoFilter = true
	pgc := guard.DefaultConfig(probe.Scenario.Ego)
	probe.Guard = &pgc
	if probe.PlannerFault, err = faultinject.Preset("flaky"); err != nil {
		t.Fatal(err)
	}

	return []goldenCase{
		{Name: "perfect", Cfg: perfect},
		{Name: "delayed", Cfg: delayed},
		{Name: "lost", Cfg: lost},
		{Name: "burst", Cfg: burst},
		{Name: "bias", Cfg: bias},
		{Name: "guard-nan", Cfg: nan},
		{Name: "script", Cfg: script},
		{Name: "probe-flaky", Cfg: probe, Probe: true},
	}
}

// goldenTrace runs one traced episode with the ultimate compound planner
// (aggressive κ_n) and renders every 10th step (and the last).
func goldenTrace(t *testing.T, tc goldenCase) []byte {
	t.Helper()
	cfg := tc.Cfg
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	opts := sim.Options{Seed: goldenSeed, Trace: true}
	rec := &streamRecorder{}
	if tc.Probe {
		agent.Collector = rec
		opts.Collector = rec
		opts.Invariants = []sim.Invariant{
			sim.NoCollision{}, sim.SoundEstimate{}, TrueSlack{Cfg: cfg.Scenario},
			sim.GuardConsistency{Limits: cfg.Scenario.Ego},
		}
	}
	res, err := RunEpisode(cfg, agent, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := golden{probeStreams: rec.probeStreams}
	for i, s := range res.Trace {
		if i%10 != 0 && i != len(res.Trace)-1 {
			continue
		}
		row := goldenRow{
			T:    s.T,
			EgoP: s.EgoP, EgoV: s.EgoV, EgoA: s.EgoA,
			LeadP: s.OncP, LeadV: s.OncV, LeadA: s.OncA,
			EstP: s.EstP, EstV: s.EstV,
			PLo: s.EstPLo, PHi: s.EstPHi,
			SPLo: s.SoundPLo, SPHi: s.SoundPHi,
			SVLo: s.SoundVLo, SVHi: s.SoundVHi,
			Emerg: s.Emergency,
		}
		if !math.IsNaN(s.MeasP) {
			m := s.MeasP
			row.MeasP = &m
		}
		g.Rows = append(g.Rows, row)
	}
	g.Result = res
	g.Result.Trace = nil
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenCarFollowTraces replays the canonical car-following episodes
// and byte-compares them against the blessed traces in testdata/.  Run
// with -update to re-bless after an intentional behaviour change.
func TestGoldenCarFollowTraces(t *testing.T) {
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			got := goldenTrace(t, tc)
			path := filepath.Join("testdata", "golden_"+tc.Name+".json")
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
				t.Fatalf("%v (run `go test ./internal/carfollow -run TestGolden -update` to bless)", err)
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
					tc.Name, diffAt, got[lo:hi])
			}
		})
	}
}
