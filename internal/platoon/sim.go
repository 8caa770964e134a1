package platoon

import (
	"safeplan/internal/carfollow"
	"safeplan/internal/sim"
)

// NewStepper validates cfg and builds the shared stop-and-go chain engine
// (carfollow.Stepper) over the resolved chain, positioned before step 0.
// The engine's monitors run on cfg.LinkScenario() and it scores the gap
// requirement of cfg.Spec.
func NewStepper(cfg SimConfig, agent carfollow.Agent, opts sim.Options) (*carfollow.Stepper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cf := cfg.SimConfig
	cf.Scenario = cfg.LinkScenario()
	fg := cfg.Follow.fill()
	ch := carfollow.Chain{
		Vehicles:          cfg.Vehicles,
		Spacing:           cfg.spacing(),
		LinkComms:         cfg.LinkComms,
		LinkSensorDisturb: cfg.LinkSensorDisturb,
		Follower: carfollow.Expert{
			Cfg:     cf.Scenario,
			Headway: fg.Headway, Buffer: fg.Buffer,
			GainGap: fg.GainGap, GainSpeed: fg.GainSpeed,
			Label: "platoon-follower",
		},
	}
	if cfg.Spec == TimeGap {
		ch.TGap = cfg.tGap()
	}
	return carfollow.NewChainStepper(cf, ch, agent, opts)
}

// RunEpisode simulates one platoon episode under the shared episode
// options (trace recording, telemetry collector) through the same closed
// loop as carfollow.RunEpisode.
func RunEpisode(cfg SimConfig, agent carfollow.Agent, opts sim.Options) (sim.Result, error) {
	st, err := NewStepper(cfg, agent, opts)
	if err != nil {
		return sim.Result{}, err
	}
	return st.Run()
}
