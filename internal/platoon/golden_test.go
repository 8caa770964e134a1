package platoon

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
)

var update = flag.Bool("update", false, "re-bless the golden trace files")

// goldenChainRow snapshots the whole chain at one control step.  Floats
// marshal with Go's shortest-round-trip formatting, so the encoding is
// byte-exact and any behavioural drift — RNG stream reordering, follower
// law changes, link plumbing — shows up as a diff.
type goldenChainRow struct {
	Step      int       `json:"step"`
	T         float64   `json:"t"`
	P         []float64 `json:"p"`
	V         []float64 `json:"v"`
	EgoA      float64   `json:"ego_a"`
	Emergency bool      `json:"emergency"`
}

// goldenChain is one blessed episode: subsampled full-chain rows plus the
// terminal outcome and per-link statistics; for the cases run with a
// collector, also the whole Result and every probe the episode emits,
// rendered with %+v (the per-step probes with wall-clock PlannerNs
// zeroed).
type goldenChain struct {
	Rows     []goldenChainRow `json:"rows"`
	Reached  bool             `json:"reached"`
	Collided bool             `json:"collided"`
	Steps    int              `json:"steps"`
	Links    []sim.LinkStats  `json:"links"`
	Result   string           `json:"result,omitempty"`
	Probes   []string         `json:"probes,omitempty"`
	Reasons  []string         `json:"reasons,omitempty"`
	Guard    []string         `json:"guard,omitempty"`
	Episode  []string         `json:"episode,omitempty"`
}

// chainRecorder is a collector that fills a goldenChain's probe streams.
type chainRecorder struct {
	telemetry.Nop
	g *goldenChain
}

func (r chainRecorder) OnStep(p telemetry.StepProbe) {
	p.PlannerNs = 0
	r.g.Probes = append(r.g.Probes, fmt.Sprintf("%+v", p))
}
func (r chainRecorder) OnMonitorDecision(reason string) { r.g.Reasons = append(r.g.Reasons, reason) }
func (r chainRecorder) OnGuardEvent(e telemetry.GuardEvent) {
	r.g.Guard = append(r.g.Guard, fmt.Sprintf("%+v", e))
}
func (r chainRecorder) OnEpisode(o telemetry.EpisodeOutcome) {
	r.g.Episode = append(r.g.Episode, fmt.Sprintf("%+v", o))
}

const goldenSeed = 11

// goldenCase is one blessed platoon episode.  Probe runs it with a
// collector and the campaign invariant set, and pins the telemetry
// streams too.
type goldenCase struct {
	Name  string
	Cfg   SimConfig
	Probe bool
}

// goldenCases are the two canonical platoon episodes — a clean chain and
// one with the adversarial burst preset on the middle link, the
// disturbance geometry the chained-link design exists for — and a
// four-vehicle chain whose ego runs a flaky planner under the guard.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	clean := DefaultSimConfig()
	clean.InfoFilter = true

	burst := DefaultSimConfig()
	burst.InfoFilter = true
	bm, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	burst.LinkComms = []comms.Config{
		comms.NoDisturbance(), comms.Disturbed(bm), comms.NoDisturbance(),
	}
	probe := DefaultSimConfig()
	probe.InfoFilter = true
	probe.Comms = comms.Delayed(0.25, 0.5)
	gc := guard.DefaultConfig(probe.Scenario.Ego)
	probe.Guard = &gc
	if probe.PlannerFault, err = faultinject.Preset("flaky"); err != nil {
		t.Fatal(err)
	}
	return []goldenCase{
		{Name: "clean", Cfg: clean},
		{Name: "burst-mid", Cfg: burst},
		{Name: "probe-flaky", Cfg: probe, Probe: true},
	}
}

// goldenChainTrace drives the engine step by step, snapshotting every
// 10th step (and the last) of the whole chain.
func goldenChainTrace(t *testing.T, tc goldenCase) []byte {
	t.Helper()
	cfg := tc.Cfg
	sc := cfg.LinkScenario()
	agent := carfollow.NewUltimate(sc, carfollow.ConservativeExpert(sc))
	var g goldenChain
	opts := sim.Options{Seed: goldenSeed}
	if tc.Probe {
		rec := chainRecorder{g: &g}
		agent.Collector = rec
		opts.Collector = rec
		opts.Invariants = []sim.Invariant{
			sim.NoCollision{}, sim.SoundEstimate{}, carfollow.TrueSlack{Cfg: sc},
			sim.GuardConsistency{Limits: sc.Ego}, StringStability{},
		}
	}
	st, err := NewStepper(cfg, agent, opts)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		out, err := st.Step(sim.StepInput{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Step%10 == 0 || out.Done {
			row := goldenChainRow{
				Step: out.Step, T: out.T,
				P:    make([]float64, len(st.States())),
				V:    make([]float64, len(st.States())),
				EgoA: out.Accel, Emergency: out.Emergency,
			}
			for i, s := range st.States() {
				row.P[i], row.V[i] = s.P, s.V
			}
			g.Rows = append(g.Rows, row)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	g.Reached, g.Collided, g.Steps, g.Links = res.Reached, res.Collided, res.Steps, res.Links
	if tc.Probe {
		g.Result = fmt.Sprintf("%+v", res)
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenChainTraces replays the canonical platoon episodes and
// byte-compares them against the blessed traces in testdata/.  Run with
// -update to re-bless after an intentional behaviour change.
func TestGoldenChainTraces(t *testing.T) {
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			got := goldenChainTrace(t, tc)
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
				t.Fatalf("%v (run `go test ./internal/platoon -run TestGoldenChainTraces -update` to bless)", err)
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
				t.Fatalf("golden chain trace %q drifted at byte %d:\n got … %s …\nre-bless with -update only if the change is intentional",
					tc.Name, diffAt, got[lo:hi])
			}
		})
	}
}
