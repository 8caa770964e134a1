package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsShort runs every workload at tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json declares is printed
// with its declared unit, and that nothing failed.
func TestWorkloadsShort(t *testing.T) {
	if !testing.Short() {
		t.Skip("runs every workload; use -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Fatalf("workload %s has no runner", w.Name)
		}
	}
	if len(runners) != len(bf.Workloads) {
		t.Fatalf("%d runners, BENCHMARK.json declares %d workloads", len(runners), len(bf.Workloads))
	}
	for name, run := range runners {
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: defaultSeed, seconds: 0.5, trace: trace, short: true, root: root}
			declared := bf.EndToEnd
			if trace {
				rc.tr = newTracer()
				declared = bf.PerLayer
			}
			line, err := execute(name, run, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d", name, trace, line.Correct, line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", name, trace, len(line.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed in %s, declared %s", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
