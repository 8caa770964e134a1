package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

// runCheck is the -check mode: it finds the suite that generated the
// report at path, looks up each workload a row names and reruns it at
// the report's recorded size and seed on o.workers workers (rows do not
// depend on the worker count), and compares each rerun row with the
// committed one byte for byte, perf timings aside.  It logs one line per
// matching row and fails naming every row and field that differs.
func runCheck(path string, o options) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed report
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(committed.Campaigns) == 0 {
		return fmt.Errorf("%s: no campaigns to check", path)
	}
	s, err := lookupSuite(committed.GeneratedBy)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if committed.Vehicles != s.vehicles {
		return fmt.Errorf("%s: a %d-vehicle chain; %s runs %d vehicles", path, committed.Vehicles, s.generatedBy, s.vehicles)
	}
	o.checkpoint, o.probe = "", false
	o.episodes, o.seed = committed.EpisodesPerCampaign, committed.BaseSeed
	names := make([]string, len(committed.Campaigns))
	for i, c := range committed.Campaigns {
		if names[i], err = rowName(c); err != nil {
			return fmt.Errorf("%s: campaign %d: %w", path, i, err)
		}
	}
	rerun, err := s.run(names, o)
	if err != nil {
		return err
	}
	var mismatches []string
	bad := 0
	for i, name := range names {
		diffs := diffRows(committed.Campaigns[i], rerun.Campaigns[i])
		for _, d := range diffs {
			mismatches = append(mismatches, fmt.Sprintf("MISMATCH %s: %s", name, d))
		}
		if len(diffs) > 0 {
			bad++
		} else {
			log.Printf("ok %s", name)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d campaigns differ from the committed report:\n%s",
			path, bad, len(names), strings.Join(mismatches, "\n"))
	}
	log.Printf("%s: all %d campaigns match", path, len(names))
	return nil
}

// rowName is the campaign name of a written row: its own name, or its
// campaign report's.
func rowName(raw json.RawMessage) (string, error) {
	var r struct {
		Name   string `json:"name"`
		Report struct {
			Name string `json:"name"`
		} `json:"report"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return "", err
	}
	if r.Name == "" {
		r.Name = r.Report.Name
	}
	if r.Name == "" {
		return "", fmt.Errorf("row has no campaign name")
	}
	return r.Name, nil
}

// diffRows compares two written rows without their perf objects, by the
// compact JSON of their values with every number's text kept, and, when
// they differ, lists each differing field by its path
// ("stats.eta.mean: committed 0.16, rerun 0.17").
func diffRows(want, got json.RawMessage) []string {
	wv, wb, err := deterministic(want)
	if err != nil {
		return []string{err.Error()}
	}
	gv, gb, err := deterministic(got)
	if err != nil {
		return []string{err.Error()}
	}
	if bytes.Equal(wb, gb) {
		return nil
	}
	var out []string
	diffValues("", wv, gv, &out)
	if len(out) == 0 {
		out = append(out, "same values, different byte layout")
	}
	return out
}

// deterministic decodes a row keeping every number's exact text, drops
// its perf objects (timings) at any depth and returns the value with its
// compact JSON, keys sorted.
func deterministic(raw []byte) (any, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, nil, err
	}
	dropPerf(v)
	b, err := json.Marshal(v)
	return v, b, err
}

func dropPerf(v any) {
	if m, ok := v.(map[string]any); ok {
		delete(m, "perf")
		for _, c := range m {
			dropPerf(c)
		}
	}
}

// diffValues appends one line per leaf that differs between two decoded
// JSON values.
func diffValues(path string, want, got any, out *[]string) {
	field := func(k string) string {
		if path == "" {
			return k
		}
		return path + "." + k
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			diffValues(field(k), w[k], g[k], out)
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		for i := range w {
			diffValues(field(fmt.Sprint(i)), w[i], g[i], out)
		}
		return
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		*out = append(*out, fmt.Sprintf("%s: committed %v, rerun %v", path, want, got))
	}
}
