package experiments

import (
	"fmt"
	"math"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/eval"
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

// AdversarialSettings returns the worst-case scenarios evaluated by
// WorstCaseTable, each built from the named presets in internal/disturb.
func AdversarialSettings() []AdversarialSetting {
	mustChan := func(name string) disturb.Model {
		m, err := disturb.Preset(name)
		if err != nil {
			panic(err) // presets are compile-time constants; covered by tests
		}
		return m
	}
	mustSens := func(name string) disturb.SensorModel {
		m, err := disturb.SensorPreset(name)
		if err != nil {
			panic(err)
		}
		return m
	}
	return []AdversarialSetting{
		{Name: "burst loss", Model: mustChan("burst")},
		{Name: "jitter+reorder", Model: mustChan("jitter")},
		{Name: "stale replay", Model: mustChan("replay")},
		{Name: "blackout", Model: mustChan("blackout")},
		{Name: "bias drift", Sensor: mustSens("bias")},
		{Name: "worst case", Model: mustChan("worst"), Sensor: mustSens("worst")},
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

// WorstCaseTable is the adversarial companion of Table I/II: for every
// AdversarialSetting it runs the pure, basic, and ultimate designs over
// the same n seeds and aggregates the paper's statistics.  The safety
// guarantee predicts SafeRate = 1 for the basic and ultimate rows under
// every disturbance (the monitor only relies on the sound estimate, which
// all channel models preserve).
func WorstCaseTable(kind PlannerKind, pl Planners, n int, seed int64) ([]TableRow, error) {
	if n <= 0 {
		n = DefaultEpisodes
	}
	p := pl.Pick(kind)
	var rows []TableRow
	for _, s := range AdversarialSettings() {
		base := adversarialSim(s)
		stats := make([]eval.Stats, 3)
		ags := agents(base.Scenario, p, base)
		for i, ag := range ags {
			rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.LeftTurn(ag.Cfg, ag.Agent))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", s.Name, ag.Label, err)
			}
			stats[i] = eval.Aggregate(rs)
		}
		for i, ag := range ags {
			row := TableRow{
				Setting:       s.Name,
				PlannerType:   ag.Label,
				ReachTime:     stats[i].MeanReachTimeSafe,
				SafeRate:      stats[i].SafeRate(),
				Eta:           stats[i].MeanEta,
				Winning:       math.NaN(),
				EmergencyFreq: stats[i].EmergencyFreq,
			}
			if ag.Label != "ultimate" {
				w, err := eval.WinningPercentage(stats[2].Etas, stats[i].Etas)
				if err != nil {
					return nil, err
				}
				row.Winning = w
			}
			if ag.Label == "pure NN" {
				row.EmergencyFreq = math.NaN()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// BurstLengths is the mean-burst-length sweep of SweepBurst: 1/PBadGood
// from 1 to 10 message periods.
func BurstLengths() []float64 {
	var xs []float64
	for j := 1; j <= 10; j++ {
		xs = append(xs, float64(j))
	}
	return xs
}

// SweepBurst extends the Fig. 5 family with a burst-loss axis: reaching
// time and emergency frequency versus the mean loss-burst length of a
// Gilbert–Elliott channel with 10% entry probability and total loss in
// the bad state.  At x = 1 the channel degenerates to near-i.i.d. loss;
// growing x holds the entry rate fixed while stretching each outage, so
// the stationary loss rate rises with the burst length.
func SweepBurst(pl Planners, n int, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, x := range BurstLengths() {
		base := sim.DefaultConfig()
		base.Sensor = sensor.Uniform(LostSensorDelta)
		base.Comms = comms.Disturbed(disturb.GilbertElliott{
			PGoodBad: 0.1,
			PBadGood: 1 / x,
			DropBad:  1,
			Delay:    DelayedDelay,
		})
		pt, err := sweepAt(x, base, pl, Conservative, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
