package disturb

import (
	"fmt"
	"sort"
)

// Presets are named, ready-to-run disturbance scripts shared by the
// workload registry's disturb-* campaigns, the worst-case experiment
// sweep, and the fuzz targets' seed corpora.  Parameters are chosen to be *adversarial*
// at the evaluation's Δt_m = 0.1 s message cadence: bursts starve the
// filter for tens of control steps, jitter tails overtake several fresher
// messages, and the blackout script follows the ISSUE's canonical
// "clean 0–2 s, burst 2–5 s, blackout 5–6 s" shape.
var presets = map[string]func() Model{
	"none": func() Model { return None{} },
	"iid":  func() Model { return IID{DropProb: 0.5, Delay: 0.25} },
	"burst": func() Model {
		// Mean dwell: 20 messages good (2 s), 8 messages bad (0.8 s) with
		// near-total loss — repeated sub-second starvation windows.
		return GilbertElliott{PGoodBad: 0.05, PBadGood: 0.125, DropGood: 0.02, DropBad: 0.98, Delay: 0.1}
	},
	"jitter": func() Model {
		// Latency 0.05–0.45 s uniform with a 15% exponential tail of mean
		// 0.5 s: heavy reordering plus 20% independent loss.
		return Jitter{Base: 0.05, Spread: 0.4, TailProb: 0.15, TailMean: 0.5, DropProb: 0.2}
	},
	"replay": func() Model {
		// Stale duplicates 0.3–1.5 s behind an already delayed channel.
		return Replay{Inner: IID{DropProb: 0.3, Delay: 0.2}, Prob: 0.4, ExtraMin: 0.3, ExtraMax: 1.5}
	},
	"blackout": func() Model {
		return Schedule{Phases: []Phase{
			{Start: 0, Model: None{}},
			{Start: 2, Model: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.2, DropBad: 1, Delay: 0.1}},
			{Start: 5, Model: Blackout{}},
			{Start: 6, Model: None{}},
		}}
	},
	"worst": func() Model {
		// Everything at once, phase by phase: burst loss, heavy jitter
		// with stale replay, a total blackout, then a lossy recovery.
		return Schedule{Phases: []Phase{
			{Start: 0, Model: GilbertElliott{PGoodBad: 0.08, PBadGood: 0.1, DropGood: 0.05, DropBad: 1, Delay: 0.15}},
			{Start: 3, Model: Replay{
				Inner: Jitter{Base: 0.1, Spread: 0.5, TailProb: 0.25, TailMean: 0.6, DropProb: 0.3},
				Prob:  0.5, ExtraMin: 0.4, ExtraMax: 2,
			}},
			{Start: 6, Model: Blackout{}},
			{Start: 7.5, Model: IID{DropProb: 0.6, Delay: 0.3}},
		}}
	},
}

var sensorPresets = map[string]func() SensorModel{
	"none": func() SensorModel { return SensorNone{} },
	"bias": func() SensorModel {
		// Full-scale drift within a 12 s period: readings sweep from one
		// edge of the sound envelope to the other and back.
		return BiasDrift{Max: 1, Period: 12}
	},
	"dropout": func() SensorModel {
		return SensorDropout{PGoodBad: 0.04, PBadGood: 0.15, DropGood: 0.05, DropBad: 0.95}
	},
	"worst": func() SensorModel {
		return SensorStack{Models: []SensorModel{
			BiasDrift{Max: 1, Period: 8},
			SensorDropout{PGoodBad: 0.05, PBadGood: 0.12, DropGood: 0.1, DropBad: 0.9},
		}}
	},
}

// Preset returns the named channel disturbance script.
func Preset(name string) (Model, error) {
	f, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("disturb: unknown preset %q (have %v)", name, PresetNames())
	}
	return f(), nil
}

// PresetNames lists the channel presets in sorted order.
func PresetNames() []string { return sortedKeys(presets) }

// SensorPreset returns the named sensor disturbance model.
func SensorPreset(name string) (SensorModel, error) {
	f, ok := sensorPresets[name]
	if !ok {
		return nil, fmt.Errorf("disturb: unknown sensor preset %q (have %v)", name, SensorPresetNames())
	}
	return f(), nil
}

// SensorPresetNames lists the sensor presets in sorted order.
func SensorPresetNames() []string { return sortedKeys(sensorPresets) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
