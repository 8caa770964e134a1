package traffic

import (
	"math/rand"
	"testing"

	"safeplan/internal/dynamics"
)

func TestStopAndGoDefaultsValid(t *testing.T) {
	if err := DefaultStopAndGoConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestStopAndGoValidateRejects(t *testing.T) {
	muts := map[string]func(*StopAndGoConfig){
		"speed":    func(c *StopAndGoConfig) { c.VCruiseMin = 10; c.VCruiseMax = 5 },
		"negspeed": func(c *StopAndGoConfig) { c.VCruiseMin = -1 },
		"cruise":   func(c *StopAndGoConfig) { c.CruiseMin = 0 },
		"cruise2":  func(c *StopAndGoConfig) { c.CruiseMin = 5; c.CruiseMax = 1 },
		"prob":     func(c *StopAndGoConfig) { c.BrakeProb = 1.5 },
		"brake":    func(c *StopAndGoConfig) { c.BrakeAccel = 1 },
		"target":   func(c *StopAndGoConfig) { c.BrakeToVMax = -1 },
		"response": func(c *StopAndGoConfig) { c.Response = 0 },
	}
	for name, mut := range muts {
		c := DefaultStopAndGoConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestStopAndGoRejectsNilRNG(t *testing.T) {
	if _, err := NewStopAndGo(DefaultStopAndGoConfig(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := DefaultStopAndGoConfig()
	bad.Response = 0
	if _, err := NewStopAndGo(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStopAndGoBrakesSometimes(t *testing.T) {
	cfg := DefaultStopAndGoConfig()
	d, err := NewStopAndGo(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	lim := dynamics.Limits{VMin: 0, VMax: 20, AMin: -6, AMax: 2.5}
	s := dynamics.State{V: 10}
	brakeSteps, cruiseSteps := 0, 0
	for i := 0; i < 4000; i++ { // 200 s
		a := d.Accel(float64(i)*0.05, s)
		if d.braking {
			brakeSteps++
			if a > 0 {
				t.Fatal("positive accel during a hard-brake phase")
			}
		} else {
			cruiseSteps++
		}
		if a < cfg.BrakeAccel-1e-9 || a > 2.5+1e-9 {
			t.Fatalf("accel %v outside behavioural envelope", a)
		}
		s, _ = dynamics.Step(s, a, 0.05, lim)
	}
	if brakeSteps == 0 {
		t.Fatal("driver never hard-braked in 200 s")
	}
	if cruiseSteps == 0 {
		t.Fatal("driver never cruised")
	}
}

func TestStopAndGoBrakePhaseEndsAtTarget(t *testing.T) {
	cfg := DefaultStopAndGoConfig()
	cfg.BrakeProb = 1 // brake at the first phase change
	d, err := NewStopAndGo(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	lim := dynamics.Limits{VMin: 0, VMax: 20, AMin: -6, AMax: 2.5}
	s := dynamics.State{V: 12}
	sawBrake := false
	for i := 0; i < 2000; i++ {
		a := d.Accel(float64(i)*0.05, s)
		if d.braking {
			sawBrake = true
		} else if sawBrake {
			// Brake phase ended: speed must be near or below the brake
			// target band.
			if s.V > cfg.BrakeToVMax+0.2 {
				t.Fatalf("brake phase ended at v=%v, above target band", s.V)
			}
			return
		}
		s, _ = dynamics.Step(s, a, 0.05, lim)
	}
	t.Fatal("brake phase never completed")
}

func TestStopAndGoDeterministic(t *testing.T) {
	run := func() []float64 {
		d, _ := NewStopAndGo(DefaultStopAndGoConfig(), rand.New(rand.NewSource(9)))
		s := dynamics.State{V: 10}
		var out []float64
		for i := 0; i < 200; i++ {
			out = append(out, d.Accel(float64(i)*0.05, s))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stop-and-go driver not deterministic")
		}
	}
}
