package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func run(t *testing.T, m Model, seed int64, n int) []Decision {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", m.Name(), err)
	}
	master := rand.New(rand.NewSource(seed))
	p := m.New(
		rand.New(rand.NewSource(master.Int63())),
		rand.New(rand.NewSource(master.Int63())),
	)
	out := make([]Decision, n)
	for i := range out {
		out[i] = p.Next(float64(i) * 0.1)
	}
	return out
}

func TestDeterminism(t *testing.T) {
	models := []Model{
		None{},
		PanicEvery{N: 7},
		PanicP{P: 0.3},
		NaNOutput{P: 0.4},
		StuckOutput{P: 0.1, Hold: 5},
		BiasOutput{Bias: 3, P: 0.5},
		LatencySpike{P: 0.4, Min: 0.05, Max: 0.4},
		Flaky{Inner: NaNOutput{P: 0.8}, PGoodBad: 0.1, PBadGood: 0.2},
		Stack{Models: []Model{PanicP{P: 0.05}, LatencySpike{P: 0.3, Min: 0.1, Max: 0.2}}},
		Script{Steps: []Decision{{Panic: true}, {}, {NonFinite: true}}},
	}
	for _, m := range models {
		a := run(t, m, 42, 400)
		b := run(t, m, 42, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different decision streams", m.Name())
		}
	}
}

func TestPanicEveryPeriod(t *testing.T) {
	ds := run(t, PanicEvery{N: 5}, 1, 20)
	for i, d := range ds {
		want := (i+1)%5 == 0
		if d.Panic != want {
			t.Fatalf("call %d: panic=%v, want %v", i, d.Panic, want)
		}
	}
}

func TestSplitStreamsLatencyAlignment(t *testing.T) {
	// Sweeping the trigger probability must not perturb the latency
	// magnitudes of the spikes that fire in both arms: fire positions
	// that coincide must carry identical latencies.
	low := run(t, LatencySpike{P: 0.3, Min: 0.05, Max: 0.4}, 9, 500)
	high := run(t, LatencySpike{P: 0.9, Min: 0.05, Max: 0.4}, 9, 500)
	shared, diff := 0, 0
	for i := range low {
		if low[i].Latency > 0 && high[i].Latency > 0 {
			shared++
			if low[i].Latency != high[i].Latency {
				diff++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no shared spikes; test is vacuous")
	}
	if diff != 0 {
		t.Errorf("%d/%d shared spikes changed latency under a trigger-probability sweep", diff, shared)
	}
}

func TestStuckHold(t *testing.T) {
	ds := run(t, StuckOutput{P: 1, Hold: 3}, 3, 6)
	for i, d := range ds {
		if !d.Stuck {
			t.Fatalf("call %d not stuck with P=1", i)
		}
	}
}

func TestStackMerges(t *testing.T) {
	ds := run(t, Stack{Models: []Model{
		BiasOutput{Bias: 2, P: 1},
		BiasOutput{Bias: -0.5, P: 1},
	}}, 5, 3)
	for i, d := range ds {
		if d.Bias != 1.5 {
			t.Fatalf("call %d: bias %v, want 1.5 (sum)", i, d.Bias)
		}
	}
}

func TestFlakyGatesInner(t *testing.T) {
	ds := run(t, Flaky{Inner: NaNOutput{P: 1}, PGoodBad: 0.05, PBadGood: 0.2}, 11, 2000)
	bad := 0
	for _, d := range ds {
		if d.NonFinite {
			bad++
		}
	}
	if bad == 0 || bad == len(ds) {
		t.Fatalf("flaky gate never switched: %d/%d faulty", bad, len(ds))
	}
}

func TestScriptExhaustsClean(t *testing.T) {
	ds := run(t, Script{Steps: []Decision{{NonFinite: true}}}, 1, 3)
	if !ds[0].NonFinite || ds[1].NonFinite || ds[2].NonFinite {
		t.Fatalf("script replay wrong: %+v", ds)
	}
}

func TestInjectorCorruptions(t *testing.T) {
	plan := func(a float64) func() (float64, bool) {
		return func() (float64, bool) { return a, false }
	}
	master := rand.New(rand.NewSource(1))
	in, err := NewInjector(Script{Steps: []Decision{
		{},                // clean: primes prev=1
		{Stuck: true},     // replays 1 while plan returns 2
		{Bias: 3},         // 3 + 3
		{NonFinite: true}, // NaN (cycle 0)
		{NonFinite: true}, // +Inf (cycle 1)
		{NonFinite: true}, // −Inf (cycle 2)
		{Latency: 0.7},    // latency only
		{Panic: true},     // raises PanicError
	}}, rand.New(rand.NewSource(master.Int63())), rand.New(rand.NewSource(master.Int63())))
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}

	if a, _ := in.Apply(0, plan(1)); a != 1 {
		t.Fatalf("clean call corrupted: %v", a)
	}
	if a, _ := in.Apply(0.1, plan(2)); a != 1 {
		t.Fatalf("stuck call returned %v, want previous raw 1", a)
	}
	if a, _ := in.Apply(0.2, plan(3)); a != 6 {
		t.Fatalf("biased call returned %v, want 6", a)
	}
	if a, _ := in.Apply(0.3, plan(1)); !math.IsNaN(a) {
		t.Fatalf("non-finite call 1 returned %v, want NaN", a)
	}
	if a, _ := in.Apply(0.4, plan(1)); !math.IsInf(a, 1) {
		t.Fatalf("non-finite call 2 returned %v, want +Inf", a)
	}
	if a, _ := in.Apply(0.5, plan(1)); !math.IsInf(a, -1) {
		t.Fatalf("non-finite call 3 returned %v, want -Inf", a)
	}
	if a, _ := in.Apply(0.6, plan(2.5)); a != 2.5 || in.SimLatency() != 0.7 {
		t.Fatalf("latency call a=%v lat=%v", a, in.SimLatency())
	}
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("injected panic did not fire")
			}
			if _, ok := rec.(PanicError); !ok {
				t.Fatalf("panic payload %T, want PanicError", rec)
			}
			if in.SimLatency() != 0 {
				t.Fatalf("latency not recorded before panic: %v", in.SimLatency())
			}
		}()
		in.Apply(0.7, plan(1))
	}()
}

func TestStuckBeforeFirstOutputIsClean(t *testing.T) {
	master := rand.New(rand.NewSource(1))
	in, err := NewInjector(Script{Steps: []Decision{{Stuck: true}}},
		rand.New(rand.NewSource(master.Int63())), rand.New(rand.NewSource(master.Int63())))
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := in.Apply(0, func() (float64, bool) { return 2, false }); a != 2 {
		t.Fatalf("stuck with no history returned %v, want pass-through 2", a)
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) < 8 {
		t.Fatalf("too few presets: %v", names)
	}
	for _, name := range names {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		run(t, m, 7, 100) // must instantiate and step without issue
	}
	if _, err := Preset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Model{
		PanicEvery{N: 0},
		PanicP{P: 1.5},
		PanicP{P: math.NaN()},
		NaNOutput{P: -0.1},
		StuckOutput{P: 0.5, Hold: -1},
		BiasOutput{Bias: math.Inf(1), P: 1},
		LatencySpike{P: 0.5, Min: 0.4, Max: 0.1},
		LatencySpike{P: 0.5, Min: -1, Max: 1},
		Flaky{Inner: nil, PGoodBad: 0.1, PBadGood: 0.1},
		Flaky{Inner: PanicP{P: 2}, PGoodBad: 0.1, PBadGood: 0.1},
		Stack{},
		Stack{Models: []Model{nil}},
		Script{Steps: []Decision{{Latency: -1}}},
		Script{Steps: []Decision{{Bias: math.NaN()}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d (%s): bad model validated", i, m.Name())
		}
	}
}

// Script replays an explicit per-call decision sequence, so a test can
// place each fault exactly; beyond its end the process is clean.
type Script struct {
	Steps []Decision
}

// Name implements Model.
func (Script) Name() string { return "script" }

// Validate implements Model.
func (m Script) Validate() error {
	for i, d := range m.Steps {
		if math.IsNaN(d.Bias) || math.IsInf(d.Bias, 0) {
			return fmt.Errorf("faultinject: script: step %d bias %v", i, d.Bias)
		}
		if math.IsNaN(d.Latency) || math.IsInf(d.Latency, 0) || d.Latency < 0 {
			return fmt.Errorf("faultinject: script: step %d latency %v", i, d.Latency)
		}
	}
	return nil
}

// New implements Model.
func (m Script) New(_, _ *rand.Rand) Process { return &scriptProcess{steps: m.Steps} }

type scriptProcess struct {
	steps []Decision
	i     int
}

func (s *scriptProcess) Next(float64) Decision {
	if s.i >= len(s.steps) {
		return Decision{}
	}
	d := s.steps[s.i]
	s.i++
	return d
}
