package carfollow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
)

func cfCfg() Config { return DefaultConfig() }

func TestDefaultConfigValid(t *testing.T) {
	c := cfCfg()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	muts := map[string]func(*Config){
		"gap":      func(c *Config) { c.PGap = 0 },
		"initgap":  func(c *Config) { c.LeadInit.P = c.EgoInit.P + 1 },
		"goal":     func(c *Config) { c.Goal = -10 },
		"dtc":      func(c *Config) { c.DtC = 0 },
		"abuf":     func(c *Config) { c.ABuf = -1 },
		"minbrake": func(c *Config) { c.MinAssumedBrake = 0.5 },
		"margin":   func(c *Config) { c.SafetyMargin = -1 },
		"ego":      func(c *Config) { c.Ego.AMax = 0 },
		"lead":     func(c *Config) { c.Lead.VMin = 5; c.Lead.VMax = 1 },
	}
	for name, mut := range muts {
		c := cfCfg()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestUnsafeSet(t *testing.T) {
	c := cfCfg()
	ego := dynamics.State{P: 0, V: 10}
	if !c.InUnsafeSet(ego, ExactLead(dynamics.State{P: 1.5, V: 10}, 0)) {
		t.Error("gap below PGap should be unsafe")
	}
	if c.InUnsafeSet(ego, ExactLead(dynamics.State{P: 2.5, V: 10}, 0)) {
		t.Error("gap above PGap should be safe")
	}
	if c.InUnsafeSet(ego, LeadEstimate{P: interval.Empty()}) {
		t.Error("no lead should never be unsafe")
	}
}

func TestSlackSemantics(t *testing.T) {
	c := cfCfg()
	// Equal speeds: slack = gap − PGap (stopping distances cancel).
	ego := dynamics.State{P: 0, V: 10}
	lead := ExactLead(dynamics.State{P: 30, V: 10}, 0)
	want := 30.0 - c.PGap
	if got := c.Slack(ego, lead); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Slack = %v, want %v", got, want)
	}
	// Faster ego reduces slack by the stopping-distance difference.
	ego.V = 14
	if got := c.Slack(ego, lead); got >= want {
		t.Fatalf("faster ego should have less slack: %v", got)
	}
	// No lead: unconstrained.
	if got := c.Slack(ego, LeadEstimate{P: interval.Empty(), V: interval.Empty()}); !math.IsInf(got, 1) {
		t.Fatalf("no-lead slack = %v", got)
	}
}

func TestBoundarySafeSet(t *testing.T) {
	c := cfCfg()
	lead := ExactLead(dynamics.State{P: 30, V: 10}, 0)
	// Comfortable state: not in the band.
	if c.InBoundarySafeSet(dynamics.State{P: 0, V: 10}, lead) {
		t.Error("comfortable gap flagged")
	}
	// Slack ≈ 0: the band must fire.
	closeEgo := dynamics.State{P: 30 - c.PGap - 0.1, V: 10} // gap = PGap + 0.1
	if !c.InBoundarySafeSet(closeEgo, lead) {
		t.Errorf("critical gap not flagged (slack %v)", c.Slack(closeEgo, lead))
	}
}

func TestEmergencyAccel(t *testing.T) {
	c := cfCfg()
	if got := c.EmergencyAccel(dynamics.State{V: 10}); got != c.Ego.AMin {
		t.Fatalf("κ_e at speed = %v", got)
	}
	if got := c.EmergencyAccel(dynamics.State{V: 0}); got != 0 {
		t.Fatalf("κ_e stopped = %v", got)
	}
}

func TestAggressiveAssumedBrake(t *testing.T) {
	c := cfCfg()
	// Cruising lead (a = 0): assume −ABuf... floored by MinAssumedBrake.
	if got := c.AggressiveAssumedBrake(0); got != c.MinAssumedBrake {
		t.Fatalf("assumed brake for cruising lead = %v", got)
	}
	// Hard-braking lead: assume slightly harder, clamped at physical a_min.
	if got := c.AggressiveAssumedBrake(-5.5); got != c.Lead.AMin {
		t.Fatalf("assumed brake for braking lead = %v", got)
	}
	if got := c.AggressiveAssumedBrake(-3); got != -4.5 {
		t.Fatalf("assumed brake = %v, want -4.5", got)
	}
}

func TestRequiredGapMonotonic(t *testing.T) {
	c := cfCfg()
	// Assuming the lead *can* brake hard (the physical a_min) demands a
	// larger gap than the aggressive soft-braking assumption.
	soft := c.RequiredGap(12, 10, -2)
	hard := c.RequiredGap(12, 10, c.Lead.AMin)
	if soft >= hard {
		t.Fatalf("soft assumption %v should demand less gap than hard %v", soft, hard)
	}
	// Never negative.
	if got := c.RequiredGap(2, 15, c.Lead.AMin); got != 0 {
		t.Fatalf("required gap = %v, want 0", got)
	}
}

func TestFeaturesShape(t *testing.T) {
	c := cfCfg()
	f := c.Features(dynamics.State{P: 0, V: 10}, ExactLead(dynamics.State{P: 20, V: 8}, -1), -3)
	if len(f) != 5 {
		t.Fatalf("features len = %d", len(f))
	}
	if math.Abs(f[0]-(20-c.PGap)) > 1e-12 || f[1] != 10 || f[2] != 8 || f[3] != -1 {
		t.Fatalf("features = %v", f)
	}
}

func TestExpertBehaviours(t *testing.T) {
	c := cfCfg()
	cons := ConservativeExpert(c)
	aggr := AggressiveExpert(c)
	ego := dynamics.State{P: 0, V: 10}
	lead := ExactLead(dynamics.State{P: 20, V: 10}, 0)
	ac := cons.Accel(0, ego, lead, c.Lead.AMin)
	aa := aggr.Accel(0, ego, lead, c.Lead.AMin)
	// At 18 m of spare gap the conservative expert (needs ~22 m headway at
	// 10 m/s) brakes or coasts; the aggressive one closes in.
	if ac >= aa {
		t.Fatalf("conservative accel %v should be below aggressive %v", ac, aa)
	}
	// Free road: both accelerate.
	free := LeadEstimate{P: interval.Empty(), V: interval.Empty()}
	if cons.Accel(0, ego, free, c.Lead.AMin) <= 0 {
		t.Fatal("free-road expert should accelerate")
	}
	// At the speed limit, no positive command.
	fast := dynamics.State{P: 0, V: c.Ego.VMax}
	if aggr.Accel(0, fast, ExactLead(dynamics.State{P: 100, V: 20}, 0), c.Lead.AMin) > 0 {
		t.Fatal("expert exceeded the speed limit")
	}
}

// Eq. 4 for car following: from any state outside the boundary band
// (slack after a worst-case step ≥ margin), engaging κ_e on the *next*
// step keeps the true gap ≥ PGap forever, for every admissible lead
// behaviour.
func TestQuickEmergencyInvariant(t *testing.T) {
	c := cfCfg()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ego := dynamics.State{P: 0, V: rng.Float64() * c.Ego.VMax}
		lead := dynamics.State{
			P: c.PGap + 0.1 + rng.Float64()*60,
			V: rng.Float64() * c.Lead.VMax,
		}
		est := ExactLead(lead, 0)
		if c.InBoundarySafeSet(ego, est) || c.InUnsafeSet(ego, est) {
			return true // the monitor would not leave κ_n in control here
		}
		// One adversarial κ_n step (the monitor certified it as safe)…
		a := c.Ego.AMin + rng.Float64()*(c.Ego.AMax-c.Ego.AMin)
		ego, _ = dynamics.Step(ego, a, c.DtC, c.Ego)
		var leadA float64
		lead, leadA = dynamics.Step(lead, c.Lead.AMin, c.DtC, c.Lead)
		_ = leadA
		// …then κ_e forever against a worst-case lead.
		for i := 0; i < 2000; i++ {
			if lead.P-ego.P < c.PGap {
				return false
			}
			ego, _ = dynamics.Step(ego, c.EmergencyAccel(ego), c.DtC, c.Ego)
			lead, _ = dynamics.Step(lead, c.Lead.AMin, c.DtC, c.Lead)
			if ego.V == 0 && lead.V == 0 {
				break
			}
		}
		return lead.P-ego.P >= c.PGap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The full compound policy with a reckless κ_n never violates the gap
// against an adversarial lead, with exact knowledge.
func TestQuickCompoundSafetyRecklessNN(t *testing.T) {
	c := cfCfg()
	full := funcPlanner{name: "floor", f: func(Config) float64 { return c.Ego.AMax }}
	agent := NewUltimate(c, full)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ego := c.EgoInit
		lead := dynamics.State{P: 30 + rng.Float64()*20, V: rng.Float64() * c.Lead.VMax}
		ego.V = lead.V
		var leadA float64
		for i := 0; i < 2000; i++ {
			k := Knowledge{Sound: ExactLead(lead, leadA), Fused: ExactLead(lead, leadA)}
			a, _ := agent.Accel(float64(i)*c.DtC, ego, k)
			ego, _ = dynamics.Step(ego, a, c.DtC, c.Ego)
			// Adversarial lead: biased random walk with hard brakes.
			var ba float64
			if rng.Float64() < 0.05 {
				ba = c.Lead.AMin
			} else {
				ba = -2 + rng.Float64()*4
			}
			lead, leadA = dynamics.Step(lead, ba, c.DtC, c.Lead)
			if c.Violation(ego, lead) {
				return false
			}
			if c.ReachedGoal(ego) {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// funcPlanner adapts a constant policy for tests.
type funcPlanner struct {
	name string
	f    func(Config) float64
}

func (p funcPlanner) Name() string { return p.name }
func (p funcPlanner) Accel(_ float64, _ dynamics.State, _ LeadEstimate, _ float64) float64 {
	return p.f(Config{})
}

func TestTrainNNPlannerImitates(t *testing.T) {
	c := cfCfg()
	nnp, loss, err := TrainNNPlanner(c, ConservativeExpert(c), "cf-nn", TrainOptions{
		Samples: 6000, Epochs: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.3 {
		t.Fatalf("imitation loss %v too high", loss)
	}
	// Spot agreement on random states.
	rng := rand.New(rand.NewSource(2))
	expert := ConservativeExpert(c)
	var sq float64
	const n = 400
	for i := 0; i < n; i++ {
		ego := dynamics.State{P: 0, V: rng.Float64() * c.Ego.VMax}
		lead := ExactLead(dynamics.State{P: c.PGap + rng.Float64()*60, V: rng.Float64() * c.Lead.VMax},
			c.Lead.AMin+rng.Float64()*(c.Lead.AMax-c.Lead.AMin))
		d := nnp.Accel(0, ego, lead, c.Lead.AMin) - expert.Accel(0, ego, lead, c.Lead.AMin)
		sq += d * d
	}
	if rmse := math.Sqrt(sq / n); rmse > 0.8 {
		t.Fatalf("behavioural RMSE %v too high", rmse)
	}
}

// Violation reports whether the true states violate the unsafe set — the
// scored safety outcome of an episode.
func (c *Config) Violation(ego, lead dynamics.State) bool {
	return lead.P-ego.P < c.PGap
}
