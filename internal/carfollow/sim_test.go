package carfollow

import (
	"testing"
	"testing/quick"

	"safeplan/internal/comms"
	"safeplan/internal/eval"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// runSeeds runs n episodes with seeds base … base+n−1, one after another.
func runSeeds(t *testing.T, cfg SimConfig, agent Agent, n int, base int64) []sim.Result {
	t.Helper()
	rs := make([]sim.Result, n)
	for i := range rs {
		r, err := RunEpisode(cfg, agent, sim.Options{Seed: base + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func simCfg() SimConfig { return DefaultSimConfig() }

func TestSimValidate(t *testing.T) {
	muts := map[string]func(*SimConfig){
		"dtm":      func(c *SimConfig) { c.DtM = 0 },
		"dts":      func(c *SimConfig) { c.DtS = -1 },
		"horizon":  func(c *SimConfig) { c.Horizon = -1 },
		"speeds":   func(c *SimConfig) { c.LeadSpeedMin = 10; c.LeadSpeedMax = 5 },
		"comms":    func(c *SimConfig) { c.Comms = comms.Delayed(0, 2) },
		"sensor":   func(c *SimConfig) { c.Sensor.DeltaP = -1 },
		"lead":     func(c *SimConfig) { c.Lead.BrakeAccel = 1 },
		"scenario": func(c *SimConfig) { c.Scenario.PGap = 0 },
	}
	for name, mut := range muts {
		c := simCfg()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestRunConservativeSafe(t *testing.T) {
	cfg := simCfg()
	r, err := RunEpisode(cfg, &Pure{Cfg: cfg.Scenario, Planner: ConservativeExpert(cfg.Scenario)}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("conservative follower violated the gap")
	}
	if !r.Reached {
		t.Fatalf("episode timed out: %+v", r)
	}
	if r.FusedIntervalMisses != 0 {
		t.Fatalf("fused estimate missed the lead %d times", r.FusedIntervalMisses)
	}
	if r.SoundViolations != 0 {
		t.Fatalf("sound estimate missed the lead %d times", r.SoundViolations)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := simCfg()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
	cfg.InfoFilter = true
	a, err := RunEpisode(cfg, agent, sim.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEpisode(cfg, agent, sim.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.ReachTime != b.ReachTime || a.Steps != b.Steps {
		t.Fatal("car-following sim not deterministic")
	}
}

func TestPureAggressiveUnsafeUnderDisturbance(t *testing.T) {
	cfg := simCfg()
	cfg.Comms = comms.Lost()
	cfg.Sensor = sensor.Uniform(2)
	agent := &Pure{Cfg: cfg.Scenario, Planner: AggressiveExpert(cfg.Scenario)}
	violations := 0
	for seed := int64(0); seed < 40; seed++ {
		r, err := RunEpisode(cfg, agent, sim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("pure aggressive follower never violated the gap — workload too benign")
	}
}

func TestCompoundAlwaysSafeAcrossSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*SimConfig)
	}{
		{"none", func(*SimConfig) {}},
		{"delayed", func(c *SimConfig) { c.Comms = comms.Delayed(0.25, 0.5) }},
		{"lost", func(c *SimConfig) { c.Comms = comms.Lost(); c.Sensor = sensor.Uniform(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simCfg()
			tc.mut(&cfg)
			cfg.InfoFilter = true
			agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
			for seed := int64(0); seed < 30; seed++ {
				r, err := RunEpisode(cfg, agent, sim.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if r.Collided {
					t.Fatalf("seed %d: gap violation", seed)
				}
			}
		})
	}
}

func TestUltimateFasterThanBasic(t *testing.T) {
	// The aggressive braking assumption lets κ_n follow closer, which
	// translates into earlier goal arrival (the ego rides nearer the lead).
	cfg := simCfg()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	const n = 60
	basicRs := runSeeds(t, cfg, NewBasic(cfg.Scenario, AggressiveExpert(cfg.Scenario)), n, 100)
	ultCfg := cfg
	ultCfg.InfoFilter = true
	ultRs := runSeeds(t, ultCfg, NewUltimate(ultCfg.Scenario, AggressiveExpert(ultCfg.Scenario)), n, 100)
	bs, us := eval.Aggregate(basicRs), eval.Aggregate(ultRs)
	if bs.SafeRate() != 1 || us.SafeRate() != 1 {
		t.Fatalf("compound designs unsafe: basic=%v ultimate=%v", bs.SafeRate(), us.SafeRate())
	}
	if us.MeanReachTimeSafe >= bs.MeanReachTimeSafe {
		t.Fatalf("ultimate %v not faster than basic %v", us.MeanReachTimeSafe, bs.MeanReachTimeSafe)
	}
}

// End-to-end property: the car-following compound planner is safe across
// random disturbance settings.
func TestQuickCarFollowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed int64) bool {
		u := seed
		if u < 0 {
			u = -u
		}
		cfg := simCfg()
		switch u % 3 {
		case 1:
			cfg.Comms = comms.Delayed(0.25, float64(u%20)*0.05)
		case 2:
			cfg.Comms = comms.Lost()
			cfg.Sensor = sensor.Uniform(1 + float64(u%10)*0.3)
		}
		cfg.InfoFilter = u%2 == 0
		agent := NewUltimate(cfg.Scenario, AggressiveExpert(cfg.Scenario))
		r, err := RunEpisode(cfg, agent, sim.Options{Seed: seed})
		if err != nil {
			return false
		}
		return !r.Collided
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
