package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"safeplan/internal/core"
	"safeplan/internal/dynamics"
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
	st.certFn = func() (float64, float64, bool) { return math.NaN(), math.NaN(), true }
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
