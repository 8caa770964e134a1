package experiments

import (
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// AdversarialSetting is one worst-case disturbance scenario: a channel
// model beyond the paper's three settings, optionally paired with an
// adversarial sensing model.  These stress the safety guarantee along
// axes the evaluation's i.i.d. drop + constant delay never exercises:
// loss bursts, latency jitter with reordering, stale replay, total
// blackout windows, and correlated sensor bias.
type AdversarialSetting struct {
	Name   string
	Model  disturb.Model       // channel disturbance (nil for sensing-only settings)
	Sensor disturb.SensorModel // sensing disturbance (nil for channel-only settings)
}

// mustPreset returns the named channel preset of internal/disturb.
func mustPreset(name string) disturb.Model {
	m, err := disturb.Preset(name)
	if err != nil {
		panic(err) // presets are compile-time constants; covered by tests
	}
	return m
}

// AdversarialSettings returns the worst-case scenarios of the worstcase
// study, each built from the named presets in internal/disturb.
func AdversarialSettings() []AdversarialSetting {
	mustSens := func(name string) disturb.SensorModel {
		m, err := disturb.SensorPreset(name)
		if err != nil {
			panic(err)
		}
		return m
	}
	return []AdversarialSetting{
		{Name: "burst loss", Model: mustPreset("burst")},
		{Name: "jitter+reorder", Model: mustPreset("jitter")},
		{Name: "stale replay", Model: mustPreset("replay")},
		{Name: "blackout", Model: mustPreset("blackout")},
		{Name: "bias drift", Sensor: mustSens("bias")},
		{Name: "worst case", Model: mustPreset("worst"), Sensor: mustSens("worst")},
	}
}

// adversarialSim builds the sim configuration for one adversarial setting.
// The sensor half-width uses the "messages lost" δ so sensing-only
// settings are meaningfully stressed.
func adversarialSim(s AdversarialSetting) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Sensor = sensor.Uniform(LostSensorDelta)
	if s.Model != nil {
		cfg.Comms = comms.Disturbed(s.Model)
	}
	cfg.SensorDisturb = s.Sensor
	return cfg
}
