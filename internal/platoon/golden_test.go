package platoon

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sim"
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
// terminal outcome and per-link statistics.
type goldenChain struct {
	Rows     []goldenChainRow `json:"rows"`
	Reached  bool             `json:"reached"`
	Collided bool             `json:"collided"`
	Steps    int              `json:"steps"`
	Links    []sim.LinkStats  `json:"links"`
}

const goldenSeed = 11

// goldenCases are the two canonical platoon episodes: a clean chain and
// one with the adversarial burst preset on the middle link — the
// disturbance geometry the chained-link design exists for.
func goldenCases(t *testing.T) []struct {
	Name string
	Cfg  SimConfig
} {
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
	return []struct {
		Name string
		Cfg  SimConfig
	}{
		{"clean", clean},
		{"burst-mid", burst},
	}
}

// goldenChainTrace drives the engine step by step, snapshotting every
// 10th step (and the last) of the whole chain.
func goldenChainTrace(t *testing.T, cfg SimConfig) []byte {
	t.Helper()
	sc := cfg.LinkScenario()
	agent := carfollow.NewUltimate(sc, carfollow.ConservativeExpert(sc))
	st, err := NewStepper(cfg, agent, sim.Options{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	var g goldenChain
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
			got := goldenChainTrace(t, tc.Cfg)
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
