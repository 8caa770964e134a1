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
// Network.Predict1 and the IBP propagation to bytes on disk.  Ranges,
// when recorded, holds each step's certified range as the engine left it
// after the step.
type goldenCertified struct {
	CertifiedSteps       int         `json:"certified_steps"`
	CertifiedRangeMisses int         `json:"certified_range_misses"`
	Rows                 []goldenRow `json:"rows"`
	Ranges               []certRange `json:"ranges,omitempty"`
}

// certRange is one step's certified command range; OK is false on the
// steps that certified nothing (κ_e's steps and faulted ones).
type certRange struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	OK bool    `json:"ok"`
}

// certifiedSetup is the verified-mode configuration of the certified
// goldens: delayed comms, the information filter, the default guard and
// the IBP propagator over the shipped model, which it also returns.
func certifiedSetup(t *testing.T, model string) (Config, *planner.NNPlanner) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	cfg.InfoFilter = true
	gc := guard.DefaultConfig(cfg.Scenario.Ego)
	cfg.Guard = &gc
	p, err := planner.LoadNNPlanner(filepath.Join("..", "..", "models", model+".json"), model, cfg.Scenario.Ego)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := ibp.New(p.Net, p.Norm)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Certify = &CertifyConfig{Prop: prop}
	return cfg, p
}

// certifiedGolden runs one traced certified episode at seed step by step
// and renders its golden record; ranges adds every step's certified
// range.
func certifiedGolden(t *testing.T, cfg Config, agent *core.Compound, seed int64, ranges bool) []byte {
	t.Helper()
	rec := &reasonRecorder{}
	agent.Collector = rec
	st, err := NewStepper(cfg, agent, Options{Seed: seed, Trace: true, Collector: rec})
	if err != nil {
		t.Fatal(err)
	}
	var g goldenCertified
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
		if ranges {
			c := &st.eng.cert
			g.Ranges = append(g.Ranges, certRange{Lo: c.lo, Hi: c.hi, OK: c.ok})
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.reasons) != len(res.Trace) {
		t.Fatalf("recorded %d monitor decisions for %d trace steps", len(rec.reasons), len(res.Trace))
	}
	if res.CertifiedSteps == 0 {
		t.Fatal("no step was certified — the check never armed")
	}
	g.CertifiedSteps, g.CertifiedRangeMisses = res.CertifiedSteps, res.CertifiedRangeMisses
	g.Rows = make([]goldenRow, len(res.Trace))
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
	return append(got, '\n')
}

// checkCertifiedGolden byte-compares got with testdata/<name>.json, or
// writes it there under -update.
func checkCertifiedGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".json")
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
			name, diffAt, got[lo:hi])
	}
}

// TestGoldenCertified replays the shipped NN planners (models/nn-cons.json
// and nn-aggr.json) in the ultimate compound under delayed comms, with the
// information filter, the guard and verified mode on, and byte-compares
// each trace against testdata/golden_certified_<model>.json.  Run with
// -update to re-bless after an intentional behaviour change.
func TestGoldenCertified(t *testing.T) {
	for _, model := range []string{"nn-cons", "nn-aggr"} {
		t.Run(model, func(t *testing.T) {
			cfg, p := certifiedSetup(t, model)
			got := certifiedGolden(t, cfg, core.NewUltimate(cfg.Scenario, p), goldenSeed, false)
			checkCertifiedGolden(t, "golden_certified_"+model, got)
		})
	}
}

// TestGoldenCertifiedAblation pins the guarded certified left turn of
// nn-cons with the two monitor ablations whose verdict can differ from
// the one the guard's envelope computes (monitor.New over the sound
// estimate), so the certifier must clip the range with the agent's own
// verdict: the compound's monitor on the fused estimate (MonitorOnFused;
// at seed 120, eleven certified ranges clip differently under the two
// verdicts) and the window inflation switched off (WindowInflation < 0;
// at the golden seed the guard's envelope rejects one κ_n command).
// Each golden also records every step's certified range:
// testdata/golden_certified_ablation_<case>.json.
func TestGoldenCertifiedAblation(t *testing.T) {
	for _, c := range []struct {
		name   string
		seed   int64
		ablate func(*core.Compound)
	}{
		{"fused", 120, func(a *core.Compound) { a.MonitorOnFused = true }},
		{"inflation", goldenSeed, func(a *core.Compound) { a.Monitor.WindowInflation = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, p := certifiedSetup(t, "nn-cons")
			agent := core.NewUltimate(cfg.Scenario, p)
			c.ablate(agent)
			got := certifiedGolden(t, cfg, agent, c.seed, true)
			checkCertifiedGolden(t, "golden_certified_ablation_"+c.name, got)
		})
	}
}
