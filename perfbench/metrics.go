package main

import (
	"math"
	"sort"
)

// metricDef names one printed metric and its unit.  The two lists below
// are the benchmark's contract: BENCHMARK.json declares exactly these
// names and units (the package test checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with tracing off.  How each workload defines them is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"episodes_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// scenarios are the four episode engines the layer pass drives.
var scenarios = []string{"leftturn", "multi", "carfollow", "platoon"}

// perLayer are the traced run's metrics.  README.md records, for each,
// the end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	out := []metricDef{
		{"sim.new_stepper_us", "us"},
	}
	for _, s := range scenarios {
		out = append(out, metricDef{"sim.step_ns." + s, "ns"})
	}
	out = append(out,
		metricDef{"sim.step_self_ns", "ns"},
		metricDef{"core.agent_self_ns", "ns"},
		metricDef{"planner.accel_ns", "ns"},
		metricDef{"comms.send_ns", "ns"},
		metricDef{"comms.poll_ns", "ns"},
		metricDef{"comms.delivered_frac", "ratio"},
		metricDef{"fusion.on_message_ns", "ns"},
		metricDef{"fusion.on_reading_ns", "ns"},
		metricDef{"fusion.estimate_ns", "ns"},
		metricDef{"monitor.assess_ns", "ns"},
		metricDef{"leftturn.features_ns", "ns"},
		metricDef{"nn.predict1_ns", "ns"},
		metricDef{"leftturn.featurebox_ns", "ns"},
		metricDef{"ibp.propagate_ns", "ns"},
		metricDef{"guard.step_ns", "ns"},
		metricDef{"dist.lease_rtt_us", "us"},
		metricDef{"dist.result_rtt_us", "us"},
		metricDef{"dist.renew_count", "count"},
		metricDef{"dist.wait_frac", "ratio"},
		metricDef{"dist.retries", "count"},
		metricDef{"campaign.worker_idle_frac", "ratio"},
		metricDef{"serve.open_us", "us"},
		metricDef{"serve.engine_step_p50_us", "us"},
		metricDef{"serve.engine_step_p99_us", "us"},
		metricDef{"serve.overhead_us", "us"},
		metricDef{"serve.backpressure_rejects", "count"},
		metricDef{"serve.generator_lag_us", "us"},
	)
	for _, s := range scenarios {
		out = append(out, metricDef{"sim.unattributed_frac." + s, "ratio"})
	}
	return append(out, metricDef{"trace_overhead_frac", "ratio"})
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.  xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of the standard tail quantiles that leaves
// at least ten samples beyond it — the highest percentile the sample
// supports.  It returns the quantile level with its value.
func tailQuantile(xs []float64) (q, v float64) {
	q = 0.5
	for _, c := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
		}
	}
	return q, quantile(xs, q)
}

// summary is how the report records a timing sample: median, the
// supported tail, and the count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailQ  float64 `json:"tail_q"`
	Tail   float64 `json:"tail"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q, v := tailQuantile(xs)
	return summary{N: len(xs), Median: median(xs), TailQ: q, Tail: v}
}
