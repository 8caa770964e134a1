package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
	"safeplan/internal/telemetry"
)

// oneTrackRecorder captures every probe an episode emits, rendered with
// %+v: the per-step telemetry probe (with the wall-clock PlannerNs
// zeroed), the monitor selections, the guard events and the episode
// outcome.
type oneTrackRecorder struct {
	telemetry.Nop
	probes, reasons, guard, episode []string
}

func (r *oneTrackRecorder) OnStep(p telemetry.StepProbe) {
	p.PlannerNs = 0
	r.probes = append(r.probes, pDump(p))
}
func (r *oneTrackRecorder) OnMonitorDecision(reason string) { r.reasons = append(r.reasons, reason) }
func (r *oneTrackRecorder) OnGuardEvent(e telemetry.GuardEvent) {
	r.guard = append(r.guard, pDump(e))
}
func (r *oneTrackRecorder) OnEpisode(o telemetry.EpisodeOutcome) {
	r.episode = append(r.episode, pDump(o))
}

// pDump renders a value for exact comparison.  Trace rows hold NaN
// placeholders (MeasP before the first reading), which JSON cannot carry
// and which compare unequal under ==; the formatted rendering is exact
// for every other value and stable for NaN.
func pDump(v any) string { return fmt.Sprintf("%+v", v) }

// oneTrackRecord is one golden case: the Result (trace split out one row
// per line), the step outcomes of a session-style drive, and the probe
// streams.
type oneTrackRecord struct {
	Result   string   `json:"result"`
	Trace    []string `json:"trace"`
	Outcomes []string `json:"outcomes,omitempty"`
	Probes   []string `json:"probes"`
	Reasons  []string `json:"reasons,omitempty"`
	Guard    []string `json:"guard,omitempty"`
	Episode  []string `json:"episode"`
	Err      string   `json:"err,omitempty"`
}

// oneTrackCase is one left-turn episode the goldens above do not pin.
type oneTrackCase struct {
	name  string
	cfg   Config
	agent func(Config) core.Agent
	invs  []Invariant
	// stream drives the episode step by step with injected messages and
	// readings instead of the closed loop.
	stream bool
	// vehicles, when nonzero, runs the case on the oncoming stream of that
	// many vehicles (NewMultiStepper with the multi-vehicle ultimate
	// compound; agent is unused) instead of the single-vehicle left turn.
	// The trace follows vehicle 1, and a streamed drive also sends events
	// for the out-of-range senders 0 and vehicles+1.
	vehicles int
}

// oneTrackCases covers the left-turn features the canonical goldens leave
// unpinned: the guard under every planner-fault preset, sensor bias
// drift, sensor dropout, a scripted oncoming vehicle, verified mode with
// and without the guard, streamed session events and the campaign
// invariant set; and one oncoming-stream case that pins the multi-vehicle
// probe, guard-report and episode streams.
func oneTrackCases(t *testing.T) []oneTrackCase {
	t.Helper()
	base := DefaultConfig()
	base.Comms = comms.Delayed(0.25, 0.5)
	base.InfoFilter = true
	// The clean episodes finish in about 7.5 s; the cap keeps the fault
	// presets that never reach the target from running the full horizon.
	base.Horizon = 8
	var cases []oneTrackCase
	for _, name := range faultinject.PresetNames() {
		m, err := faultinject.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		c := base
		c.PlannerFault = m
		cases = append(cases, oneTrackCase{name: "fault-" + name, cfg: c, agent: ultimateAgent, invs: faultInvariants(c)})
	}

	bias := base
	bias.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}
	drop := base
	drop.SensorDropProb = 0.4
	script := base
	script.OncomingScript = []float64{1, 1, 0.5, 0, -1, -2, -2, -1, 0, 0.5}
	campaignSet := base
	cases = append(cases,
		oneTrackCase{name: "bias-drift", cfg: bias, agent: ultimateAgent},
		oneTrackCase{name: "sensor-drop", cfg: drop, agent: ultimateAgent},
		oneTrackCase{name: "script", cfg: script, agent: ultimateAgent},
		oneTrackCase{name: "campaign-invariants", cfg: campaignSet, agent: ultimateAgent, invs: []Invariant{
			NoCollision{},
			SoundEstimate{},
			EmergencyOneStep{Cfg: campaignSet.Scenario},
			NewMonitorConsistency(campaignSet.Scenario),
		}},
		oneTrackCase{name: "stream", cfg: base, agent: ultimateAgent, stream: true},
	)

	p, prop := certifyPlanner(t, 2)
	nnAgent := func(c Config) core.Agent { return core.NewUltimate(c.Scenario, p) }
	cert := base
	cert.Certify = &CertifyConfig{Prop: prop}
	certGuarded := cert
	gc := guard.DefaultConfig(cert.Scenario.Ego)
	certGuarded.Guard = &gc
	cases = append(cases,
		oneTrackCase{name: "certified", cfg: cert, agent: nnAgent},
		oneTrackCase{name: "certified-guarded", cfg: certGuarded, agent: nnAgent},
	)

	// The oncoming stream with every per-track input path at once:
	// i.i.d. dropout, bias drift, a planner-fault preset under an explicit
	// guard, the fault invariant set and streamed events.
	multi := base
	multi.Horizon = 12
	multi.SensorDropProb = 0.4
	multi.SensorDisturb = disturb.BiasDrift{Max: 1, Period: 12}
	mgc := guard.DefaultConfig(multi.Scenario.Ego)
	multi.Guard = &mgc
	fm, err := faultinject.Preset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	multi.PlannerFault = fm
	cases = append(cases, oneTrackCase{name: "multi-stream", cfg: multi, invs: faultInvariants(multi), stream: true, vehicles: 3})
	return cases
}

// streamInput builds the streamed events for one control step: every
// fifth step a V2V report of the oncoming vehicle's true state three
// steps back, and a reading offset by 0.3·δ, both taken from a reference
// trace of the same seed (the oncoming trajectory does not depend on the
// ego, so the reference truth holds for the driven episode).
func streamInput(ref []Sample, step int, dt float64) StepInput {
	if step%5 != 4 || step < 3 || step-3 >= len(ref) {
		return StepInput{}
	}
	s := ref[step-3]
	return StepInput{
		Messages: []comms.Message{{Sender: 1, T: s.T, P: s.OncP, V: s.OncV, A: s.OncA}},
		Readings: []sensor.Reading{{Target: 1, T: s.T + dt, P: s.OncP + s.OncV*dt + 0.3, V: s.OncV - 0.3, A: s.OncA}},
	}
}

// newStepper builds the case's engine; rec, when non-nil, is attached to
// the compound agent as its monitor-decision collector.
func (c oneTrackCase) newStepper(opts Options, rec telemetry.Collector) (*MultiStepper, error) {
	if c.vehicles == 0 {
		agent := c.agent(c.cfg)
		if a, ok := agent.(*core.Compound); ok && rec != nil {
			a.Collector = rec
		}
		return NewStepper(c.cfg, agent, opts)
	}
	agent := core.NewMultiUltimate(c.cfg.Scenario, planner.ConservativeExpert(c.cfg.Scenario))
	if rec != nil {
		agent.Collector = rec
	}
	return NewMultiStepper(MultiConfig{Config: c.cfg, Vehicles: c.vehicles}, agent, opts)
}

// runOneTrack runs one case and records it.
func runOneTrack(t *testing.T, c oneTrackCase, sh *Scratch) oneTrackRecord {
	t.Helper()
	rec := &oneTrackRecorder{}
	opts := Options{Seed: goldenSeed, Trace: true, Collector: rec, Invariants: c.invs, Scratch: sh}
	var out oneTrackRecord
	var res Result
	var err error
	if !c.stream {
		res, err = run(c.newStepper(opts, rec))
	} else {
		ref, rerr := run(c.newStepper(Options{Seed: goldenSeed, Trace: true}, nil))
		if rerr != nil {
			t.Fatal(rerr)
		}
		st, nerr := c.newStepper(opts, rec)
		if nerr != nil {
			t.Fatal(nerr)
		}
		for step := 0; !st.Done(); step++ {
			in := streamInput(ref.Trace, step, c.cfg.Scenario.DtC)
			if c.vehicles > 0 && len(in.Messages) > 0 {
				m, r := in.Messages[0], in.Readings[0]
				for _, bad := range []int{0, c.vehicles + 1} {
					m.Sender, r.Target = bad, bad
					in.Messages = append(in.Messages, m)
					in.Readings = append(in.Readings, r)
				}
			}
			o, serr := st.Step(in)
			if serr != nil {
				t.Fatal(serr)
			}
			out.Outcomes = append(out.Outcomes, pDump(o))
		}
		res, err = st.Finish()
	}
	if err != nil {
		out.Err = err.Error()
	}
	if c.cfg.Certify != nil && res.CertifiedSteps == 0 {
		t.Fatalf("%s: no step was certified; the check never armed", c.name)
	}
	for _, s := range res.Trace {
		out.Trace = append(out.Trace, pDump(s))
	}
	res.Trace = nil
	out.Result = pDump(res)
	out.Probes, out.Reasons, out.Guard, out.Episode = rec.probes, rec.reasons, rec.guard, rec.episode
	return out
}

// TestGoldenOneTrack pins every left-turn feature the canonical goldens
// leave open (see oneTrackCases) to testdata/golden_onetrack.json: the
// full Result with its trace, the step outcomes of a streamed drive, the
// telemetry probe stream, the monitor selections and the guard events.
// Each case runs with no arena and on one arena reused across all cases;
// both must match the file.  Run with -update to re-bless after an
// intentional behaviour change.
func TestGoldenOneTrack(t *testing.T) {
	cases := oneTrackCases(t)
	reused := NewScratch()
	got := make(map[string]oneTrackRecord, len(cases))
	for _, c := range cases {
		fresh := runOneTrack(t, c, nil)
		pooled := runOneTrack(t, c, reused)
		if pDump(fresh) != pDump(pooled) {
			t.Fatalf("%s: pooled episode diverged from the fresh one\nfresh:  %s\npooled: %s", c.name, pDump(fresh), pDump(pooled))
		}
		got[c.name] = fresh
	}
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden_onetrack.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantData, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestGoldenOneTrack -update` to bless)", err)
	}
	var want map[string]oneTrackRecord
	if err := json.Unmarshal(wantData, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, the test runs %d", len(want), len(got))
	}
	for _, c := range cases {
		g, w := got[c.name], want[c.name]
		if pDump(g) == pDump(w) {
			continue
		}
		gl, wl := oneTrackLines(g), oneTrackLines(w)
		for i := range max(len(gl), len(wl)) {
			var gs, ws string
			if i < len(gl) {
				gs = gl[i]
			}
			if i < len(wl) {
				ws = wl[i]
			}
			if gs != ws {
				t.Fatalf("one-track golden %q drifted at line %d:\n got:  %s\n want: %s\nre-bless with -update only if the change is intentional",
					c.name, i, gs, ws)
			}
		}
	}
}

// oneTrackLines flattens a record for a first-difference report.
func oneTrackLines(r oneTrackRecord) []string {
	out := []string{"err " + r.Err, "result " + r.Result}
	for _, group := range []struct {
		tag   string
		lines []string
	}{
		{"trace", r.Trace}, {"outcome", r.Outcomes}, {"probe", r.Probes},
		{"reason", r.Reasons}, {"guard", r.Guard}, {"episode", r.Episode},
	} {
		for _, l := range group.lines {
			out = append(out, group.tag+" "+l)
		}
	}
	return out
}
