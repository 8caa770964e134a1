package main

import (
	"bytes"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "re-bless the golden output files")

// TestGoldenFigures pins what -fig all prints with the expert planners at
// -n 10 -seed 42, as tables and charts and as CSV: every study's rows,
// formatting and order.  Stdout is a pure function of the flags (wall
// times go to stderr), so any byte that moves is a behaviour change.
func TestGoldenFigures(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for _, c := range []struct {
		file string
		args []string
	}{
		{"all.txt", []string{"-fig", "all", "-n", "10", "-seed", "42"}},
		{"all.csv", []string{"-fig", "all", "-n", "10", "-seed", "42", "-csv"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("figures %v differs from %s (rerun with -update after an intended change)\ngot:\n%s", c.args, path, out.Bytes())
			}
		})
	}
}

// TestRejectsBadFlags keeps -n below one and unknown study ids errors.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-n", "0"}, {"-fig", "nope", "-n", "1"}} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("figures %v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("figures %v wrote %q", args, out.String())
		}
	}
}
