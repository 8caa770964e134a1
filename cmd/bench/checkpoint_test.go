package main

import (
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/faultinject"
)

// TestCheckpointDirMissing runs the guard matrix with -checkpoint naming
// a directory that does not exist yet, two levels deep: makeCheckpointDir
// must create it, and every campaign must leave its checkpoint there.
func TestCheckpointDirMissing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing", "ckpt")
	if err := makeCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	report := guardMatrix(4, 2, 42, dir)
	for _, c := range report.Campaigns {
		path := filepath.Join(dir, sanitize("fault-"+c.Preset+"/ultimate-conservative")+".json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("preset %s: %v", c.Preset, err)
		}
	}
	if len(report.Campaigns) != len(faultinject.PresetNames()) {
		t.Fatalf("%d campaigns for %d presets", len(report.Campaigns), len(faultinject.PresetNames()))
	}
	if err := makeCheckpointDir(""); err != nil {
		t.Fatalf("empty -checkpoint: %v", err)
	}
}
