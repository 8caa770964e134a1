package sim

import (
	"math"
	"testing"
	"testing/quick"

	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
)

func baseConfig() Config { return DefaultConfig() }

func consAgent(cfg Config) core.Agent {
	return &core.PureNN{Cfg: cfg.Scenario, Planner: planner.ConservativeExpert(cfg.Scenario)}
}

func TestValidateRejects(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"dtm":    func(c *Config) { c.DtM = 0 },
		"dts":    func(c *Config) { c.DtS = -1 },
		"hor":    func(c *Config) { c.Horizon = -1 },
		"spread": func(c *Config) { c.OncomingStartSpread = -1 },
		"speed":  func(c *Config) { c.OncomingSpeedMin = 10; c.OncomingSpeedMax = 5 },
		"comms":  func(c *Config) { c.Comms = comms.Delayed(0, 2) },
		"sensor": func(c *Config) { c.Sensor.DeltaP = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			c := baseConfig()
			mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestRunConservativeReachesSafely(t *testing.T) {
	cfg := baseConfig()
	r, err := Run(cfg, consAgent(cfg), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reached || r.Collided {
		t.Fatalf("conservative episode: %+v", r)
	}
	if r.ReachTime <= 4 || r.ReachTime >= 30 {
		t.Fatalf("implausible reach time %v", r.ReachTime)
	}
	if r.Eta <= 0 || math.Abs(r.Eta-1/r.ReachTime) > 1e-12 {
		t.Fatalf("η = %v for reach time %v", r.Eta, r.ReachTime)
	}
	if r.FusedIntervalMisses != 0 {
		t.Fatalf("fused estimate missed %d times", r.FusedIntervalMisses)
	}
	if r.SoundViolations != 0 {
		t.Fatalf("sound estimate violated %d times", r.SoundViolations)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	cfg := baseConfig()
	cfg.Comms = comms.Delayed(0.25, 0.5)
	a, err := Run(cfg, consAgent(cfg), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, consAgent(cfg), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.ReachTime != b.ReachTime || a.Steps != b.Steps || a.Eta != b.Eta {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := baseConfig()
	a, _ := Run(cfg, consAgent(cfg), Options{Seed: 1})
	b, _ := Run(cfg, consAgent(cfg), Options{Seed: 2})
	if a.ReachTime == b.ReachTime && a.Steps == b.Steps {
		t.Fatal("different seeds produced identical episodes (suspicious)")
	}
}

func TestTraceRecorded(t *testing.T) {
	cfg := baseConfig()
	r, err := Run(cfg, consAgent(cfg), Options{Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != r.Steps {
		t.Fatalf("trace length %d != steps %d", len(r.Trace), r.Steps)
	}
	// Time stamps advance by DtC; ego position is monotone.
	for i := 1; i < len(r.Trace); i++ {
		if r.Trace[i].T <= r.Trace[i-1].T {
			t.Fatal("trace time not increasing")
		}
		if r.Trace[i].EgoP < r.Trace[i-1].EgoP-1e-9 {
			t.Fatal("ego moved backwards")
		}
	}
	// Sound intervals in the trace contain the truth.
	for _, s := range r.Trace {
		if s.OncP < s.SoundPLo-1e-6 || s.OncP > s.SoundPHi+1e-6 {
			t.Fatalf("sound interval [%v,%v] misses truth %v", s.SoundPLo, s.SoundPHi, s.OncP)
		}
	}
}

func TestNoTraceByDefault(t *testing.T) {
	cfg := baseConfig()
	r, _ := Run(cfg, consAgent(cfg), Options{Seed: 3})
	if r.Trace != nil {
		t.Fatal("trace recorded without Options.Trace")
	}
}

func TestPureAggressiveSometimesCollides(t *testing.T) {
	cfg := baseConfig()
	agent := &core.PureNN{Cfg: cfg.Scenario, Planner: planner.AggressiveExpert(cfg.Scenario)}
	collided := 0
	for seed := int64(0); seed < 60; seed++ {
		r, err := Run(cfg, agent, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Collided {
			collided++
			if r.Eta != -1 {
				t.Fatalf("collided episode η = %v, want -1", r.Eta)
			}
		}
	}
	if collided == 0 {
		t.Fatal("pure aggressive planner never collided — workload too benign")
	}
}

func TestCompoundAlwaysSafe(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"none", func(c *Config) {}},
		{"delayed", func(c *Config) { c.Comms = comms.Delayed(0.25, 0.5) }},
		{"lost", func(c *Config) { c.Comms = comms.Lost(); c.Sensor = sensor.Uniform(3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mut(&cfg)
			cfg.InfoFilter = true
			agent := core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
			for seed := int64(0); seed < 40; seed++ {
				r, err := Run(cfg, agent, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if r.Collided {
					t.Fatalf("seed %d: compound planner collided", seed)
				}
			}
		})
	}
}

func TestLostCommsStillWorks(t *testing.T) {
	cfg := baseConfig()
	cfg.Comms = comms.Lost()
	cfg.Sensor = sensor.Uniform(2)
	r, err := Run(cfg, consAgent(cfg), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("conservative expert collided under lost comms")
	}
	if !r.Reached {
		t.Fatal("episode timed out under lost comms")
	}
}

func TestEmergencyFrequency(t *testing.T) {
	var r Result
	if r.EmergencyFrequency() != 0 {
		t.Fatal("zero-step frequency should be 0")
	}
	r = Result{Steps: 200, EmergencySteps: 50}
	if r.EmergencyFrequency() != 0.25 {
		t.Fatalf("frequency = %v", r.EmergencyFrequency())
	}
}

// Property: under arbitrary disturbance settings, the ultimate compound
// planner never collides and the sound estimate never misses the truth.
func TestQuickEndToEndSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed int64) bool {
		cfg := baseConfig()
		rng := seed
		switch rng % 3 {
		case 1:
			cfg.Comms = comms.Delayed(0.25, float64(seed%20)*0.05)
		case 2:
			cfg.Comms = comms.Lost()
			cfg.Sensor = sensor.Uniform(1 + float64(seed%20)*0.2)
		}
		cfg.InfoFilter = seed%2 == 0
		var agent core.Agent
		if cfg.InfoFilter {
			agent = core.NewUltimate(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
		} else {
			agent = core.NewBasic(cfg.Scenario, planner.AggressiveExpert(cfg.Scenario))
		}
		r, err := Run(cfg, agent, Options{Seed: seed})
		if err != nil {
			return false
		}
		return !r.Collided
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
