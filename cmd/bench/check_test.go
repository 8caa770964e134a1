package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestDiffRowsNamesFields pins -check's comparison: byte-equal stats pass,
// and every differing leaf is named by its path with both values.
func TestDiffRowsNamesFields(t *testing.T) {
	row := func(stats string) checkedRow { return checkedRow{Stats: json.RawMessage(stats)} }
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
	steps := int64(7)
	if d := diffRows(committed, checkedRow{CertifiedSteps: &steps, Stats: committed.Stats}); len(d) != 1 {
		t.Fatalf("a certified-steps column missing from the committed row gave %q", d)
	}
}
