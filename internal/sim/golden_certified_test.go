package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/guard"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
)

// goldenCertified is one certified-NN golden file: the trace rows of one
// traced episode in the goldenRow format, plus the verified-mode counters.
// It is the only golden that runs a trained network, so it pins
// Network.Predict1 and the IBP propagation to bytes on disk.
type goldenCertified struct {
	CertifiedSteps       int         `json:"certified_steps"`
	CertifiedRangeMisses int         `json:"certified_range_misses"`
	Rows                 []goldenRow `json:"rows"`
}

// TestGoldenCertified replays the shipped NN planners (models/nn-cons.json
// and nn-aggr.json) in the ultimate compound under delayed comms, with the
// information filter, the guard and verified mode on, and byte-compares
// each trace against testdata/golden_certified_<model>.json.  Run with
// -update to re-bless after an intentional behaviour change.
func TestGoldenCertified(t *testing.T) {
	for _, model := range []string{"nn-cons", "nn-aggr"} {
		model := model
		t.Run(model, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Comms = comms.Delayed(0.25, 0.5)
			cfg.InfoFilter = true
			gc := guard.DefaultConfig(cfg.Scenario.Ego)
			cfg.Guard = &gc
			sc := cfg.Scenario
			p, err := planner.LoadNNPlanner(filepath.Join("..", "..", "models", model+".json"), model, sc.Ego)
			if err != nil {
				t.Fatal(err)
			}
			prop, err := ibp.New(p.Net, p.Norm)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Certify = &CertifyConfig{Prop: prop}

			agent := core.NewUltimate(sc, p)
			rec := &reasonRecorder{}
			agent.SetCollector(rec)
			res, err := Run(cfg, agent, Options{Seed: goldenSeed, Trace: true, Collector: rec})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.reasons) != len(res.Trace) {
				t.Fatalf("recorded %d monitor decisions for %d trace steps", len(rec.reasons), len(res.Trace))
			}
			if res.CertifiedSteps == 0 {
				t.Fatal("no step was certified — the check never armed")
			}
			g := goldenCertified{
				CertifiedSteps:       res.CertifiedSteps,
				CertifiedRangeMisses: res.CertifiedRangeMisses,
				Rows:                 make([]goldenRow, len(res.Trace)),
			}
			for i, s := range res.Trace {
				g.Rows[i] = goldenRow{
					T:    s.T,
					EgoP: s.EgoP, EgoV: s.EgoV, EgoA: s.EgoA,
					OncP: s.OncP, OncV: s.OncV,
					Reason:    rec.reasons[i],
					Emergency: s.Emergency,
				}
			}
			got, err := json.MarshalIndent(g, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden_certified_"+model+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/sim -run TestGoldenCertified -update` to bless)", err)
			}
			if !bytes.Equal(got, want) {
				diffAt := 0
				for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
					diffAt++
				}
				lo, hi := max(diffAt-80, 0), min(diffAt+80, len(got))
				t.Fatalf("certified golden %q drifted at byte %d:\n got … %s …\nre-bless with -update only if the change is intentional",
					model, diffAt, got[lo:hi])
			}
		})
	}
}
