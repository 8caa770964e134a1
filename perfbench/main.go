// Command perfbench is the repository benchmark.  It runs one named
// workload for a fixed wall-clock budget and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured from this
// package's own files around calls into each module's public API (see
// README.md).  A fuller report — run environment, sample counts, tail
// percentiles, correctness details — goes to standard error and, with
// the traced run's spans, to .bench_build/perfbench-out/.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload campaign-expert --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// short shrinks every size knob for the package test; digests do not
	// apply.
	short bool
	// root is the repository checkout the benchmark runs in (models/ and
	// the output directory live under it).
	root string
	tr   *tracer
}

// budget is the duration of a phase that takes frac of the run's
// measured time.
func (rc runConfig) budget(frac float64) time.Duration {
	return time.Duration(rc.seconds * frac * float64(time.Second))
}

// outcome is one workload run's result before printing.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	// notes lists every correctness failure, for the report.
	notes []string

	metrics map[string]float64
	// calls is the call count beside each per-layer metric.
	calls map[string]int64
	// details holds everything else the report records: tail
	// percentiles, sample counts, per-campaign statistics.
	details map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		correct: true,
		metrics: map[string]float64{},
		calls:   map[string]int64{},
		details: map[string]any{},
	}
}

// fail records a correctness failure of n attempted items.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.correct = false
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// layer records a per-layer metric with its call count.
func (o *outcome) layer(name string, v float64, calls int64) {
	o.metrics[name] = v
	o.calls[name] = calls
}

// runners maps each workload name to its runner.
var runners = map[string]func(runConfig) (*outcome, error){
	"campaign-expert":       runCampaignExpert,
	"campaign-certified-nn": runCertifiedNN,
}

type printedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]printedMetric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: campaign-expert or campaign-certified-nn")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; every input derives from it")
		seconds  = flag.Float64("seconds", 10, "measured wall-clock budget per run [s]")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	)
	flag.Parse()
	run, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}
	if rc.trace {
		rc.tr = newTracer()
	}
	line, err := execute(*workload, run, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// execute runs one workload, checks that it produced every declared
// metric, writes the full report and returns the result line.
func execute(name string, run func(runConfig) (*outcome, error), rc runConfig) (*resultLine, error) {
	env := captureEnv(rc)
	out, err := run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	line := &resultLine{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]printedMetric, len(want)),
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, m.name)
		}
		line.Metrics[m.name] = printedMetric{Value: v, Unit: m.unit}
	}
	for name, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	if line.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted", name)
	}
	report := map[string]any{
		"workload":    name,
		"seed":        rc.seed,
		"seconds":     rc.seconds,
		"trace":       rc.trace,
		"short":       rc.short,
		"env":         env,
		"correct":     out.correct,
		"attempted":   out.attempted,
		"failed":      out.failed,
		"failed_frac": float64(out.failed) / float64(out.attempted),
		"notes":       out.notes,
		"metrics":     out.metrics,
		"calls":       out.calls,
		"details":     out.details,
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, string(raw))
	dir := filepath.Join(rc.root, ".bench_build", "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d-trace%v", name, rc.seed, rc.trace)
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := rc.tr.writeSpans(filepath.Join(dir, base+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return line, nil
}

// workers is the benchmark's concurrency: one worker, connection or
// shard per available processor, never more.
func workers() int { return runtime.GOMAXPROCS(0) }
