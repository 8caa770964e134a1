package safeplan

import (
	"encoding/json"
	"testing"
)

// TestStepperFacadeParity pins that the facade's stepper constructor
// reproduces RunEpisode exactly, including the functional options (trace
// recording flows through).
func TestStepperFacadeParity(t *testing.T) {
	sc := DefaultScenario()
	kn := NewConservativeExpert(sc)
	agent := BuildUltimate(sc, kn)
	cfg := DefaultSimConfig()
	cfg.InfoFilter = true

	want, err := RunEpisode(cfg, agent, 5, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cfg, agent, 5, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("facade stepper diverged from RunEpisode\nrun:     %s\nstepper: %s", wb, gb)
	}
	if len(got.Trace) == 0 {
		t.Fatal("WithTrace did not flow through the stepper constructor")
	}
}
