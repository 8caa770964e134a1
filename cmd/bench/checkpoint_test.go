package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointDirMissing runs every suite with -checkpoint naming a
// directory that does not exist yet, two levels deep: the runner must
// create it, and every row must leave its checkpoint there.  A second
// run of the certification sweep resumes each row from its checkpoint,
// and its certified-width rerun must still run every episode: a resumed
// width run probes no step and fails the sweep's probe-count gate.
func TestCheckpointDirMissing(t *testing.T) {
	for _, s := range suites {
		t.Run(s.out, func(t *testing.T) {
			o := tinyOptions()
			o.checkpoint = filepath.Join(t.TempDir(), "missing", "ckpt")
			path := filepath.Join(t.TempDir(), "report.json")
			if err := runReport(s, o, path); err != nil {
				t.Fatal(err)
			}
			for _, name := range s.rows(o.quick) {
				if _, err := os.Stat(filepath.Join(o.checkpoint, sanitize(name)+".json")); err != nil {
					t.Errorf("row %s: %v", name, err)
				}
			}
			if s.generatedBy != "cmd/bench -ibp" {
				return
			}
			first, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := runReport(s, o, path); err != nil {
				t.Fatalf("resumed sweep: %v", err)
			}
			second, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var a, b report
			if err := json.Unmarshal(first, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(second, &b); err != nil {
				t.Fatal(err)
			}
			for i := range a.Campaigns {
				if d := diffRows(a.Campaigns[i], b.Campaigns[i]); d != nil {
					t.Errorf("resumed row %d differs: %v", i, d)
				}
			}
		})
	}
	if err := runReport(suites[0], options{quick: true, episodes: 1, workers: 1, seed: 42}, filepath.Join(t.TempDir(), "r.json")); err != nil {
		t.Fatalf("empty -checkpoint: %v", err)
	}
}
