package sim

import (
	"fmt"

	"safeplan/internal/core"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/telemetry"
)

// MultiConfig extends Config with a stream of oncoming vehicles: vehicle i
// starts SpacingDist·i metres behind the first (plus jitter), each with its
// own random behaviour, V2V channel, sensor stream, and fusion filter.
type MultiConfig struct {
	Config

	// Vehicles is the number of oncoming vehicles (≥ 1).
	Vehicles int
	// SpacingDist separates successive vehicles' start positions [m].
	// Zero selects DefaultSpacingDist.
	SpacingDist float64
	// SpacingJitter adds U(0, SpacingJitter) extra metres per gap.
	SpacingJitter float64
}

// DefaultSpacingDist keeps successive oncoming vehicles ≈2 s apart at
// typical speeds.
const DefaultSpacingDist = 20

// DefaultMultiConfig returns a three-vehicle stream over the standard
// evaluation defaults, with a longer horizon so the whole stream can clear.
func DefaultMultiConfig() MultiConfig {
	cfg := DefaultConfig()
	cfg.Horizon = 45
	return MultiConfig{
		Config:        cfg,
		Vehicles:      3,
		SpacingDist:   DefaultSpacingDist,
		SpacingJitter: 8,
	}
}

// Validate checks the configuration.
func (c MultiConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Vehicles < 1 {
		return fmt.Errorf("sim: need at least one oncoming vehicle, got %d", c.Vehicles)
	}
	if err := CheckFinite("sim", Field{"SpacingDist", c.SpacingDist}, Field{"SpacingJitter", c.SpacingJitter}); err != nil {
		return err
	}
	if c.SpacingDist < 0 || c.SpacingJitter < 0 {
		return fmt.Errorf("sim: negative spacing")
	}
	if c.Certify != nil {
		// Refuse rather than run unverified: the multi engine has no
		// certifier, so the counters would read zero misses unchecked.
		return fmt.Errorf("sim: Certify is not implemented for the multi-vehicle engine")
	}
	return nil
}

// RunMulti simulates one episode with a stream of oncoming vehicles.  The
// episode ends at the first collision with any vehicle, when the ego
// clears the zone, or at the horizon.
func RunMulti(cfg MultiConfig, agent core.MultiAgent, opts Options) (Result, error) {
	return run(NewMultiStepper(cfg, agent, opts))
}

// run runs a freshly built engine's closed loop (Drive).
func run(st *MultiStepper, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Drive(st)
}

// multiStepProbe condenses the per-vehicle knowledge into the widths of
// one telemetry probe: the estimate widths report the worst-tracked
// (widest) vehicle, and the window widths report the most constraining
// window — exactly the one handed to κ_n.  cons and aggr are per-track
// scratch slices of length len(ks), kept in the pooled engine so a
// collector-attached run stays allocation-free per step.
func multiStepProbe(sc *leftturn.Config, ks []core.Knowledge, cons, aggr []interval.Interval) telemetry.StepProbe {
	var p telemetry.StepProbe
	for i, k := range ks {
		if w := k.Sound.P.Width(); w > p.SoundWidth {
			p.SoundWidth = w
		}
		if w := k.Fused.P.Width(); w > p.FusedWidth {
			p.FusedWidth = w
		}
		cons[i] = sc.ConservativeWindow(k.Fused)
		aggr[i] = sc.AggressiveWindow(k.Fused)
	}
	p.ConsWidth = core.MostConstrainingWindow(cons).Width()
	p.AggrWidth = core.MostConstrainingWindow(aggr).Width()
	return p
}
