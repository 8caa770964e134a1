package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadFlags keeps the flag combinations simulate cannot honour
// errors that print nothing: a trace of a campaign, fewer than one
// episode, an unknown workload or metrics format, a stray argument.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "-episodes", "2"},
		{"-episodes", "0"},
		{"-episodes", "-3"},
		{"-workload", "nope"},
		{"-metrics", "xml"},
		{"-episodes", "2", "4"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("simulate %v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("simulate %v wrote %q", args, out.String())
		}
	}
}

// TestTraceOfWorkload runs one traced episode of a registered workload:
// the agent and workload lines, the guard line of a fault workload and
// the CSV trace all print.
func TestTraceOfWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "fault-nan/ultimate-conservative", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"agent:    ultimate:expert-conservative\n",
		"workload: fault-nan/ultimate-conservative  seed: 1\n",
		"guard:    ",
		"t,ego_p,ego_v,ego_a,",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
