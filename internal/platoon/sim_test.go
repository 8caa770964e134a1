package platoon

import (
	"math"
	"strings"
	"testing"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/sim"
)

// ultimate builds the NN-slot compound agent against the effective link
// scenario (so TimeGap configs monitor on the DDefault floor).
func ultimate(cfg SimConfig) carfollow.Agent {
	sc := cfg.LinkScenario()
	return carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
}

func TestValidate(t *testing.T) {
	muts := map[string]func(*SimConfig){
		"vehicles":      func(c *SimConfig) { c.Vehicles = 1 },
		"spacing-nan":   func(c *SimConfig) { c.Spacing = math.NaN() },
		"spacing-tight": func(c *SimConfig) { c.Spacing = c.Scenario.PGap / 2 },
		"link-comms":    func(c *SimConfig) { c.LinkComms = []comms.Config{comms.Lost()} },
		"link-sensor": func(c *SimConfig) {
			c.LinkSensorDisturb = []disturb.SensorModel{nil, nil}
		},
		"spec":          func(c *SimConfig) { c.Spec = GapSpec(9) },
		"tgap":          func(c *SimConfig) { c.Spec = TimeGap; c.TGap = math.Inf(1) },
		"follow":        func(c *SimConfig) { c.Follow.GainGap = -1 },
		"embedded-comm": func(c *SimConfig) { c.Comms = comms.Delayed(0, 2) },
	}
	for name, mut := range muts {
		c := DefaultSimConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	good := DefaultSimConfig()
	good.LinkComms = []comms.Config{comms.NoDisturbance(), comms.Lost(), comms.Delayed(0.25, 0.5)}
	good.LinkSensorDisturb = []disturb.SensorModel{nil, disturb.BiasDrift{Max: 1, Period: 12}, nil}
	good.Spec = TimeGap
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestChainSafeUnderBurstOnAnyLink hits each chain segment with the
// adversarial burst preset in turn — the scenario the per-link channel
// plumbing exists for — and requires the whole chain to stay safe with
// sound estimation intact.
func TestChainSafeUnderBurstOnAnyLink(t *testing.T) {
	burst, err := disturb.Preset("burst")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultSimConfig()
	base.InfoFilter = true
	for hit := 0; hit < base.Vehicles-1; hit++ {
		links := make([]comms.Config, base.Vehicles-1)
		for i := range links {
			links[i] = comms.NoDisturbance()
		}
		links[hit] = comms.Disturbed(burst)
		cfg := base
		cfg.LinkComms = links
		agent := ultimate(cfg)
		invs := []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: cfg.LinkScenario()},
			StringStability{},
		}
		for seed := int64(0); seed < 10; seed++ {
			r, err := RunEpisode(cfg, agent, sim.Options{Seed: seed, Invariants: invs})
			if err != nil {
				t.Fatalf("burst on link %d, seed %d: %v", hit, seed, err)
			}
			if r.Collided {
				t.Fatalf("burst on link %d, seed %d: gap violation", hit, seed)
			}
			if r.SoundViolations != 0 {
				t.Fatalf("burst on link %d, seed %d: %d sound violations", hit, seed, r.SoundViolations)
			}
		}
	}
}

// TestLinkStatsPopulated pins the Links contract: nil at N = 2, one entry
// per link with sane values for longer chains, published before episode
// invariants run.
func TestLinkStatsPopulated(t *testing.T) {
	cfg := DefaultSimConfig()
	agent := ultimate(cfg)
	r, err := RunEpisode(cfg, agent, sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != cfg.Vehicles-1 {
		t.Fatalf("got %d link stats for %d links", len(r.Links), cfg.Vehicles-1)
	}
	for l, ls := range r.Links {
		if ls.MinGap <= cfg.Scenario.PGap {
			t.Errorf("link %d: min gap %v at or below PGap despite no collision", l, ls.MinGap)
		}
		if ls.PeakGapErr < 0 {
			t.Errorf("link %d: negative peak gap error %v", l, ls.PeakGapErr)
		}
		if ls.EmergencySteps < 0 || (l == 0 && ls.EmergencySteps != 0) {
			t.Errorf("link %d: bad emergency count %d", l, ls.EmergencySteps)
		}
	}

	two := cfg
	two.Vehicles = 2
	r2, err := RunEpisode(two, agent, sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Links != nil {
		t.Fatalf("two-vehicle platoon published link stats: %+v", r2.Links)
	}
}

// TestStringStabilityInvariant covers both verdicts of the chain-level
// checker directly on synthetic results.
func TestStringStabilityInvariant(t *testing.T) {
	stable := &sim.Result{Links: []sim.LinkStats{
		{PeakGapErr: 4}, {PeakGapErr: 3.2}, {PeakGapErr: 2.1},
	}}
	if err := (StringStability{}).CheckEpisode(stable); err != nil {
		t.Fatalf("damping chain rejected: %v", err)
	}
	amplifying := &sim.Result{Links: []sim.LinkStats{
		{PeakGapErr: 2}, {PeakGapErr: 3},
	}}
	err := (StringStability{}).CheckEpisode(amplifying)
	if err == nil {
		t.Fatal("amplifying chain accepted")
	}
	if !strings.Contains(err.Error(), "string-stability") {
		t.Fatalf("unexpected violation text: %v", err)
	}
	// Sub-floor wiggle is noise, not propagation.
	noise := &sim.Result{Links: []sim.LinkStats{
		{PeakGapErr: 0.01}, {PeakGapErr: 0.3},
	}}
	if err := (StringStability{}).CheckEpisode(noise); err != nil {
		t.Fatalf("sub-floor chain rejected: %v", err)
	}
	if err := (StringStability{}).CheckEpisode(&sim.Result{}); err != nil {
		t.Fatal("non-platoon result rejected")
	}
}

// TestTimeGapSpec pins the config switch: the monitor floor moves to
// DDefault, the violation predicate gains the speed term, and the chain
// still runs safely under the default constants.
func TestTimeGapSpec(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Spec = TimeGap
	if got := cfg.LinkScenario().PGap; got != DefaultDDefault {
		t.Fatalf("TimeGap monitor floor = %v, want %v", got, DefaultDDefault)
	}
	if got, want := cfg.RequiredGap(10), DefaultDDefault+DefaultTGap*10; got != want {
		t.Fatalf("RequiredGap(10) = %v, want %v", got, want)
	}
	pred := cfg.Scenario.LeadInit
	foll := cfg.Scenario.EgoInit
	foll.P = pred.P - DefaultDDefault - DefaultTGap*foll.V + 0.1
	if !cfg.GapViolation(pred, foll) {
		t.Fatal("time-gap breach not flagged")
	}
	// The guarantee covers only the DDefault floor; an agent must keep a
	// headway of at least TGap itself to meet the speed-dependent part.
	// The conservative expert (1.8 s > TGap) does, the aggressive one
	// (0.35 s) does not — both facts are part of the spec's semantics.
	sc := cfg.LinkScenario()
	cons := carfollow.NewUltimate(sc, carfollow.ConservativeExpert(sc))
	for seed := int64(0); seed < 6; seed++ {
		r, err := RunEpisode(cfg, cons, sim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			t.Fatalf("seed %d: conservative chain broke the time gap", seed)
		}
	}
	breaches := 0
	aggr := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
	for seed := int64(0); seed < 6; seed++ {
		r, err := RunEpisode(cfg, aggr, sim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			breaches++
		}
	}
	if breaches == 0 {
		t.Fatal("aggressive chain never breached the speed-dependent gap — spec switch inert?")
	}
}

// TestEngineScoresGapViolation pins the engine's per-step collision
// scoring to GapViolation, the reference predicate, under both gap
// specifications: a step is scored a collision exactly when some link
// violates it on the post-step true states.
func TestEngineScoresGapViolation(t *testing.T) {
	for _, spec := range []GapSpec{FixedGap, TimeGap} {
		cfg := DefaultSimConfig()
		cfg.Spec = spec
		cfg.Comms = comms.Delayed(0.25, 0.5)
		sc := cfg.LinkScenario()
		agent := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
		collided := 0
		for seed := int64(0); seed < 6; seed++ {
			st, err := NewStepper(cfg, agent, sim.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for !st.Done() {
				out, err := st.Step(sim.StepInput{})
				if err != nil {
					t.Fatal(err)
				}
				states, violated := st.States(), false
				for l := 0; l+1 < len(states); l++ {
					violated = violated || cfg.GapViolation(states[l], states[l+1])
				}
				if out.Collided != violated {
					t.Fatalf("spec %d seed %d step %d: scored collision %v, GapViolation %v",
						spec, seed, out.Step, out.Collided, violated)
				}
			}
			if res, _ := st.Finish(); res.Collided {
				collided++
			}
		}
		if spec == TimeGap && collided == 0 {
			t.Fatal("no time-gap breach scored — the speed term is not exercised")
		}
	}
}

// GapViolation reports whether the pair (pred, foll) violates the
// configured pairwise unsafe set — the scored safety outcome, evaluated
// on true states.  Under FixedGap it is exactly the car-following
// Violation predicate; the engine scores it through the resolved
// Chain's TGap (TestEngineScoresGapViolation).
func (c *SimConfig) GapViolation(pred, foll dynamics.State) bool {
	return pred.P-foll.P < c.RequiredGap(foll.V)
}

// RequiredGap returns the minimum admissible bumper gap for a follower
// moving at speed v under the configured spec.
func (c *SimConfig) RequiredGap(v float64) float64 {
	if c.Spec == TimeGap {
		return c.dDefault() + c.tGap()*v
	}
	return c.Scenario.PGap
}
