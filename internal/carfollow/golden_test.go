package carfollow

import (
	"bytes"
	"encoding/json"
	"flag"
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
// terminal Result (counters, guard statistics) with its trace stripped.
type golden struct {
	Rows   []goldenRow `json:"rows"`
	Result sim.Result  `json:"result"`
}

const goldenSeed = 11

// goldenCases cover every input path of the car-following engine: the
// three paper channel settings, the adversarial burst preset, a sensing
// fault, the guard under injected NaN planner output, and a scripted
// lead that brakes hard mid-course.
func goldenCases(t *testing.T) []struct {
	Name string
	Cfg  SimConfig
} {
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

	return []struct {
		Name string
		Cfg  SimConfig
	}{
		{"perfect", perfect},
		{"delayed", delayed},
		{"lost", lost},
		{"burst", burst},
		{"bias", bias},
		{"guard-nan", nan},
		{"script", script},
	}
}

// goldenTrace runs one traced episode with the ultimate compound planner
// (aggressive κ_n) and renders every 10th step (and the last).
func goldenTrace(t *testing.T, cfg SimConfig) []byte {
	t.Helper()
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	res, err := RunEpisode(cfg, agent, sim.Options{Seed: goldenSeed, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var g golden
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
			got := goldenTrace(t, tc.Cfg)
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
