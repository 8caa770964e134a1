package faultinject

import (
	"fmt"
	"sort"
)

// Presets are named, ready-to-run planner-fault workloads shared by the
// workload registry's fault-* campaigns (cmd/bench -guard, cmd/simulate
// -workload fault-<preset>/ultimate-conservative), the fault matrix, and
// the fuzz seed corpus.  Parameters are adversarial at the
// evaluation's Δt_c = 0.1 s control cadence: panic and NaN rates high
// enough to drive the guard through its full degradation cycle within an
// episode, latency spikes that straddle the default one-period step
// budget, and a flaky gate whose bursts are long enough to degrade but
// short enough to let trust recover.
var presets = map[string]func() Model{
	"none": func() Model { return None{} },
	"panic": func() Model {
		return PanicP{P: 0.2}
	},
	"panic-every": func() Model {
		// One deterministic crash every 2.5 simulated seconds.
		return PanicEvery{N: 25}
	},
	"nan": func() Model {
		return NaNOutput{P: 0.5}
	},
	"stuck": func() Model {
		// ~one freeze per 20 s, each holding the output for 1.5 s.
		return StuckOutput{P: 0.005, Hold: 15}
	},
	"bias": func() Model {
		// +4 m/s² on every call: exceeds the ego's AMax margin, so most
		// biased commands become guard range rejections.
		return BiasOutput{Bias: 4, P: 1}
	},
	"latency": func() Model {
		// Spikes 0.05–0.4 s straddle the default 0.1 s step budget.
		return LatencySpike{P: 0.3, Min: 0.05, Max: 0.4}
	},
	"flaky": func() Model {
		// Bursts of mixed NaN + latency faults: mean good dwell 5 s,
		// mean bad dwell 1 s — the guard degrades and recovers repeatedly.
		return Flaky{
			Inner: Stack{Models: []Model{
				NaNOutput{P: 0.6},
				LatencySpike{P: 0.5, Min: 0.1, Max: 0.5},
			}},
			PGoodBad: 0.02,
			PBadGood: 0.1,
		}
	},
	"worst": func() Model {
		// Everything at once: random crashes, non-finite and biased
		// outputs, freezes, and latency tails.
		return Stack{Models: []Model{
			PanicP{P: 0.1},
			NaNOutput{P: 0.3},
			StuckOutput{P: 0.02, Hold: 20},
			BiasOutput{Bias: 5, P: 0.5},
			LatencySpike{P: 0.4, Min: 0.05, Max: 0.5},
		}}
	},
}

// Preset returns the named planner-fault workload.
func Preset(name string) (Model, error) {
	f, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown preset %q (have %v)", name, PresetNames())
	}
	return f(), nil
}

// PresetNames lists the presets in sorted order.
func PresetNames() []string {
	keys := make([]string, 0, len(presets))
	for k := range presets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
