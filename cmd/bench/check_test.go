package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDiffRowsNamesFields pins -check's comparison: byte-equal rows pass
// whatever their layout or perf timings, and every differing leaf is
// named by its path with both values.
func TestDiffRowsNamesFields(t *testing.T) {
	row := func(stats string) json.RawMessage { return json.RawMessage(`{"stats": ` + stats + `}`) }
	committed := row(`{"episodes": 500, "eta": {"n": 500, "mean": 0.25}, "rates": [1, 2]}`)
	if d := diffRows(committed, row(`{"episodes":500,"eta":{"n":500,"mean":0.25},"rates":[1,2]}`)); d != nil {
		t.Fatalf("layout-only difference reported: %v", d)
	}
	got := diffRows(committed, row(`{"episodes":500,"eta":{"n":500,"mean":0.26},"rates":[1,3]}`))
	want := []string{
		"stats.eta.mean: committed 0.25, rerun 0.26",
		"stats.rates.1: committed 2, rerun 3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diffRows = %q, want %q", got, want)
	}
	withSteps := json.RawMessage(`{"certified_steps": 7, "stats": {"episodes": 500, "eta": {"n": 500, "mean": 0.25}, "rates": [1, 2]}}`)
	if d := diffRows(committed, withSteps); len(d) != 1 {
		t.Fatalf("a certified-steps column missing from the committed row gave %q", d)
	}
	timed := json.RawMessage(`{"report": {"perf": {"wall_seconds": 1}, "stats": {"n": 1}}}`)
	if d := diffRows(timed, json.RawMessage(`{"report": {"perf": {"wall_seconds": 2}, "stats": {"n": 1}}}`)); d != nil {
		t.Fatalf("a perf difference was reported: %v", d)
	}
}

// tinyOptions runs a suite at a test size: 4 episodes per row and the
// quick canonical matrix.
func tinyOptions() options {
	return options{quick: true, models: filepath.Join("..", "..", "models"), episodes: 4, workers: 2, seed: 42, probe: true}
}

// TestSuitesRoundTrip runs every suite at tiny size and checks its
// report two ways: -check passes on the suite's own output, and a
// one-leaf edit to a row's stats is named by its path while an edit
// under perf is not compared.
func TestSuitesRoundTrip(t *testing.T) {
	for _, s := range suites {
		t.Run(s.out, func(t *testing.T) {
			o := tinyOptions()
			path := filepath.Join(t.TempDir(), "report.json")
			if err := runReport(s, o, path); err != nil {
				t.Fatal(err)
			}
			if err := runCheck(path, o); err != nil {
				t.Fatalf("-check on the suite's own report: %v", err)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep map[string]any
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.UseNumber()
			if err := dec.Decode(&rep); err != nil {
				t.Fatal(err)
			}
			first := rep["campaigns"].([]any)[0].(map[string]any)
			prefix, campaign := "", first
			if nested, ok := first["report"].(map[string]any); ok {
				prefix, campaign = "report.", nested
			}
			campaign["perf"].(map[string]any)["wall_seconds"] = json.Number("12345")
			edited, _ := json.Marshal(rep)
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := runCheck(path, o); err != nil {
				t.Fatalf("-check compared a perf field: %v", err)
			}

			stats := campaign["stats"].(map[string]any)
			stats["steps"] = json.Number("1")
			edited, _ = json.Marshal(rep)
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			err = runCheck(path, o)
			want := "MISMATCH " + campaign["name"].(string) + ": " + prefix + "stats.steps: committed 1, rerun "
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("-check after a one-leaf edit: %v, want it to name %q", err, want)
			}
		})
	}
}
