package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"safeplan/internal/core"
	"safeplan/internal/dynamics"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/nn"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
)

// certifyPlanner builds a random NN planner (with a normalizer, the
// trained-model shape) and its matching propagator.
func certifyPlanner(t testing.TB, seed int64) (*planner.NNPlanner, *ibp.Propagator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, nn.Tanh{}, 5, 12, 12, 1)
	norm := &nn.Normalizer{Mean: make([]float64, 5), Std: make([]float64, 5)}
	for j := range norm.Mean {
		norm.Mean[j] = rng.Float64()*10 - 5
		norm.Std[j] = 1 + rng.Float64()*10
	}
	cfg := DefaultConfig()
	p := &planner.NNPlanner{Label: "certify-test", Net: net, Norm: norm, Limits: cfg.Scenario.Ego}
	prop, err := ibp.New(net, norm)
	if err != nil {
		t.Fatalf("ibp.New: %v", err)
	}
	return p, prop
}

// TestCertifyZeroMisses is the soundness property end to end: on clean
// episodes (no fault injection, no planner corruption) the executed κ_n
// command always lies inside the IBP certified range — for the pure
// agent, both compound designs, and the guarded path.
func TestCertifyZeroMisses(t *testing.T) {
	p, prop := certifyPlanner(t, 1)
	base := DefaultConfig()
	gcfg := guard.DefaultConfig(base.Scenario.Ego)
	cases := []struct {
		name  string
		agent core.Agent
		mut   func(*Config)
	}{
		{"pure", &core.PureNN{Cfg: base.Scenario, Planner: p}, nil},
		{"basic", core.NewBasic(base.Scenario, p), nil},
		{"ultimate", core.NewUltimate(base.Scenario, p), func(c *Config) { c.InfoFilter = true }},
		{"ultimate_guarded", core.NewUltimate(base.Scenario, p), func(c *Config) {
			c.InfoFilter = true
			c.Guard = &gcfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			cfg.Certify = &CertifyConfig{Prop: prop}
			var certified, misses int
			for seed := int64(0); seed < 25; seed++ {
				res, err := Run(cfg, tc.agent, Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				certified += res.CertifiedSteps
				misses += res.CertifiedRangeMisses
			}
			if certified == 0 {
				t.Fatal("no step was certified — the check never armed")
			}
			if misses != 0 {
				t.Fatalf("%d/%d certified steps missed the range on clean episodes", misses, certified)
			}
		})
	}
}

// TestCertifyDoesNotPerturbEpisode pins the opt-in contract: enabling
// verified mode changes only the certification counters, never the
// episode itself.
func TestCertifyDoesNotPerturbEpisode(t *testing.T) {
	p, prop := certifyPlanner(t, 2)
	agent := core.NewUltimate(DefaultConfig().Scenario, p)
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultConfig()
		cfg.InfoFilter = true
		plain, err := Run(cfg, agent, Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Certify = &CertifyConfig{Prop: prop}
		verified, err := Run(cfg, agent, Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if verified.CertifiedSteps == 0 {
			t.Fatalf("seed %d: verified run certified nothing", seed)
		}
		verified.CertifiedSteps, verified.CertifiedRangeMisses = 0, 0
		verified.Guard.CertifiedSteps, verified.Guard.CertifiedRangeMisses = 0, 0
		// NaN != NaN would fail DeepEqual on the pre-measurement trace
		// rows; replace the sentinel (bit-identity checked separately).
		for _, tr := range [][]Sample{plain.Trace, verified.Trace} {
			for i := range tr {
				if math.IsNaN(tr[i].MeasP) {
					tr[i].MeasP = -1e9
				}
				if math.IsNaN(tr[i].MeasV) {
					tr[i].MeasV = -1e9
				}
			}
		}
		if !reflect.DeepEqual(plain, verified) {
			t.Fatalf("seed %d: result diverged:\nplain    %+v\nverified %+v", seed, plain, verified)
		}
	}
}

// TestCertifyVerdictSharing pins when the left-turn engine assesses one
// verdict per step for the compound, the guard's envelope and the
// certifier (MultiStepper.comp): only for a compound whose Cfg is the
// scenario's and whose monitor is monitor.New over the sound estimate,
// guarded or not.  Where it shares, every step's certified range and the
// whole result must equal a run with sharing switched off, also under
// planner faults that drive the guard's fallback paths.
func TestCertifyVerdictSharing(t *testing.T) {
	p, prop := certifyPlanner(t, 3)
	sc := DefaultConfig().Scenario
	gcfg := guard.DefaultConfig(sc.Ego)
	worst, err := faultinject.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	fused := core.NewUltimate(sc, p)
	fused.MonitorOnFused = true
	inflated := core.NewUltimate(sc, p)
	inflated.Monitor.WindowInflation = 0.5
	cases := []struct {
		name   string
		agent  core.Agent
		guard  bool
		fault  faultinject.Model
		shared bool
	}{
		{"ultimate_guarded", core.NewUltimate(sc, p), true, nil, true},
		{"basic_guarded", core.NewBasic(sc, p), true, nil, true},
		{"ultimate_guarded_faults", core.NewUltimate(sc, p), true, worst, true},
		{"ultimate_unguarded", core.NewUltimate(sc, p), false, nil, true},
		{"fused_guarded", fused, true, nil, false},
		{"inflation_guarded", inflated, true, nil, false},
		{"pure_guarded", &core.PureNN{Cfg: sc, Planner: p}, true, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.InfoFilter = true
			cfg.Certify = &CertifyConfig{Prop: prop}
			cfg.PlannerFault = tc.fault
			if tc.guard {
				cfg.Guard = &gcfg
			}
			for seed := int64(0); seed < 10; seed++ {
				run := func(share bool) (Result, []certRange) {
					st, err := NewStepper(cfg, tc.agent, Options{Seed: seed, Trace: true, Scratch: NewScratch()})
					if err != nil {
						t.Fatal(err)
					}
					if got := st.comp != nil; got != tc.shared {
						t.Fatalf("shared = %v, want %v", got, tc.shared)
					}
					if !share {
						st.comp = nil
					}
					var ranges []certRange
					for !st.Done() {
						if _, err := st.Step(StepInput{}); err != nil {
							t.Fatal(err)
						}
						c := &st.eng.cert
						ranges = append(ranges, certRange{Lo: c.lo, Hi: c.hi, OK: c.ok})
					}
					res, err := st.Finish()
					if err != nil {
						t.Fatal(err)
					}
					return res, ranges
				}
				res, ranges := run(true)
				if !tc.shared {
					continue
				}
				ref, refRanges := run(false)
				if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", ref) {
					t.Fatalf("seed %d: result with the shared verdict diverged:\nshared %+v\nown    %+v", seed, res, ref)
				}
				if !reflect.DeepEqual(ranges, refRanges) {
					t.Fatalf("seed %d: certified ranges diverged with the shared verdict", seed)
				}
			}
		})
	}
}

// ownAssess hides an agent's type from NewStepper, so a compound behind
// it assesses its own verdict in Accel.
type ownAssess struct{ core.Agent }

// sharedRun is one traced episode of TestSharedVerdictMatchesOwnAssess:
// its result, its monitor decisions and every step's certified range.
type sharedRun struct {
	res     string
	reasons []string
	ranges  []certRange
}

// runShared runs one traced episode of agent at seed through NewStepper.
// With hide set the compound assesses its own verdict: behind ownAssess
// when cfg is not certified (verified mode refuses unknown agent types),
// and otherwise with the engine's shared verdict switched off after
// construction.  shared reports whether the engine shared its verdict.
func runShared(t *testing.T, cfg Config, agent *core.Compound, seed int64, hide bool) (run sharedRun, shared bool) {
	t.Helper()
	rec := &reasonRecorder{}
	agent.Collector = rec
	defer func() { agent.Collector = nil }()
	var a core.Agent = agent
	if hide && cfg.Certify == nil {
		a = ownAssess{agent}
	}
	st, err := NewStepper(cfg, a, Options{Seed: seed, Trace: true, Scratch: NewScratch()})
	if err != nil {
		t.Fatal(err)
	}
	shared = st.comp != nil
	if hide {
		st.comp = nil
	}
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
		c := &st.eng.cert
		run.ranges = append(run.ranges, certRange{Lo: c.lo, Hi: c.hi, OK: c.ok})
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// %+v prints the trace rows' NaN sentinels alike on both sides.
	run.res, run.reasons = fmt.Sprintf("%+v", res), rec.reasons
	return run, shared
}

// TestSharedVerdictMatchesOwnAssess runs the shipped nn-cons planner in
// compounds through NewStepper on the certified goldens' seeds, guarded
// and certified as in certifiedSetup and unguarded without verified
// mode, once as NewStepper takes it and once with the compound assessing
// its own verdict.  The results with their trace rows, the monitor
// decisions and the certified ranges must be identical.  The ultimate
// and basic compounds share the engine's verdict; the two certified
// ablations (WindowInflation < 0 and MonitorOnFused) must not, and a
// shared verdict would change their runs.
func TestSharedVerdictMatchesOwnAssess(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(Config, *planner.NNPlanner) *core.Compound
		shared bool
	}{
		{"ultimate", func(c Config, p *planner.NNPlanner) *core.Compound { return core.NewUltimate(c.Scenario, p) }, true},
		{"basic", func(c Config, p *planner.NNPlanner) *core.Compound { return core.NewBasic(c.Scenario, p) }, true},
		{"inflation", func(c Config, p *planner.NNPlanner) *core.Compound {
			a := core.NewUltimate(c.Scenario, p)
			a.Monitor.WindowInflation = -1
			return a
		}, false},
		{"fused", func(c Config, p *planner.NNPlanner) *core.Compound {
			a := core.NewUltimate(c.Scenario, p)
			a.MonitorOnFused = true
			return a
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			certified, p := certifiedSetup(t, "nn-cons")
			plain := certified
			plain.Guard, plain.Certify = nil, nil
			for _, mode := range []struct {
				name string
				cfg  Config
			}{{"guarded-certified", certified}, {"unguarded", plain}} {
				for _, seed := range []int64{goldenSeed, 120} {
					agent := tc.build(mode.cfg, p)
					got, shared := runShared(t, mode.cfg, agent, seed, false)
					if shared != tc.shared {
						t.Fatalf("%s seed %d: shared = %v, want %v", mode.name, seed, shared, tc.shared)
					}
					want, _ := runShared(t, mode.cfg, agent, seed, true)
					if got.res != want.res {
						t.Fatalf("%s seed %d: result diverged from the compound's own verdict:\ngot  %s\nwant %s",
							mode.name, seed, got.res, want.res)
					}
					if !reflect.DeepEqual(got.reasons, want.reasons) {
						t.Fatalf("%s seed %d: monitor decisions diverged from the compound's own verdict", mode.name, seed)
					}
					if !reflect.DeepEqual(got.ranges, want.ranges) {
						t.Fatalf("%s seed %d: certified ranges diverged from the compound's own verdict", mode.name, seed)
					}
				}
			}
		})
	}
}

// badAgent is an agent type verified mode cannot describe.
type badAgent struct{}

func (badAgent) Name() string { return "bad" }
func (badAgent) Accel(float64, dynamics.State, core.Knowledge) (float64, bool) {
	return 0, false
}

// TestCertifyRejectsUnsupported pins the constructor-time rejections:
// unknown agent types and shape-mismatched propagators.
func TestCertifyRejectsUnsupported(t *testing.T) {
	_, prop := certifyPlanner(t, 3)
	cfg := DefaultConfig()
	cfg.Certify = &CertifyConfig{Prop: prop}
	if _, err := NewStepper(cfg, badAgent{}, Options{}); err == nil {
		t.Fatal("unknown agent type accepted")
	}
	cfg.Certify = &CertifyConfig{}
	if err := cfg.Validate(); err == nil {
		t.Fatal("nil propagator accepted")
	}
	rng := rand.New(rand.NewSource(4))
	wide, err := ibp.New(nn.NewMLP(rng, nn.Tanh{}, 3, 4, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Certify = &CertifyConfig{Prop: wide}
	if err := cfg.Validate(); err == nil {
		t.Fatal("3-input propagator accepted for 5-feature planners")
	}
}

// TestCertifyEpisodeAllocs is the verified-mode alloc budget wired into
// make alloc-gate: with a warm arena, enabling Certify must stay within
// the same per-episode budget as the plain path (the IBP scratch and the
// certifier live in the pooled engine).
func TestCertifyEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short")
	}
	p, prop := certifyPlanner(t, 5)
	cfg := DefaultConfig()
	cfg.InfoFilter = true
	cfg.Certify = &CertifyConfig{Prop: prop}
	agent := core.NewUltimate(cfg.Scenario, p)
	sh := NewScratch()
	opts := Options{Scratch: sh}
	if _, err := Run(cfg, agent, opts); err != nil { // warm the arena
		t.Fatal(err)
	}
	seed := int64(1)
	avg := testing.AllocsPerRun(10, func() {
		opts.Seed = seed
		seed++
		if _, err := Run(cfg, agent, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > episodeAllocBudget {
		t.Errorf("verified episode allocates %.1f times (budget %d)", avg, episodeAllocBudget)
	}
}

// TestMultiConfigRejectsCertify pins the oncoming stream's refusal of
// verified mode: the engine certifies the single-vehicle left turn only,
// so a set Certify must fail validation rather than report zero certified
// steps.
func TestMultiConfigRejectsCertify(t *testing.T) {
	p, prop := certifyPlanner(t, 4)
	cfg := DefaultMultiConfig()
	cfg.Certify = &CertifyConfig{Prop: prop}
	if err := cfg.Validate(); err == nil {
		t.Fatal("MultiConfig.Validate accepted Certify")
	}
	agent := core.NewMultiUltimate(cfg.Scenario, p)
	if _, err := RunMulti(cfg, agent, Options{Seed: 1}); err == nil {
		t.Fatal("RunMulti ran with Certify set")
	}
	cfg.Certify = nil
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MultiConfig.Validate without Certify: %v", err)
	}
}

// TestCertifyNaNRangeMisses pins the NaN-safe miss check on the unguarded
// path: a certified range with a NaN bound admits no command, so every
// certified step counts as a miss instead of passing silently.
func TestCertifyNaNRangeMisses(t *testing.T) {
	p, prop := certifyPlanner(t, 3)
	cfg := DefaultConfig()
	cfg.Certify = &CertifyConfig{Prop: prop}
	st, err := NewStepper(cfg, &core.PureNN{Cfg: cfg.Scenario, Planner: p}, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st.eng.certFn = func() (float64, float64, bool) { return math.NaN(), math.NaN(), true }
	for !st.Done() {
		if _, err := st.Step(StepInput{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.CertifiedSteps == 0 || res.CertifiedRangeMisses != res.CertifiedSteps {
		t.Fatalf("NaN range: %d misses over %d certified steps, want all", res.CertifiedRangeMisses, res.CertifiedSteps)
	}
}
