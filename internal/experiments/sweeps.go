package experiments

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/eval"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// SweepPoint is one x-position of a Figure-5 sweep: the reaching time and
// emergency frequency of the pure, basic, and ultimate designs built around
// the conservative κ_n (the paper sweeps κ_n,cons; Fig. 5 caption).
type SweepPoint struct {
	X float64 // swept parameter value

	PureReach, BasicReach, UltReach float64
	PureEm, BasicEm, UltEm          float64
	PureSafe, BasicSafe, UltSafe    float64
}

// sweepAt evaluates the three designs at one parameter point.
func sweepAt(x float64, base sim.Config, pl Planners, kind PlannerKind, n int, seed int64) (SweepPoint, error) {
	pt := SweepPoint{X: x}
	p := pl.Pick(kind)
	for i, ag := range agents(base.Scenario, p, base) {
		rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.LeftTurn(ag.Cfg, ag.Agent))
		if err != nil {
			return pt, fmt.Errorf("experiments: sweep x=%v %s: %w", x, ag.Label, err)
		}
		st := eval.Aggregate(rs)
		switch i {
		case 0:
			pt.PureReach, pt.PureEm, pt.PureSafe = st.MeanReachTimeSafe, st.EmergencyFreq, st.SafeRate()
		case 1:
			pt.BasicReach, pt.BasicEm, pt.BasicSafe = st.MeanReachTimeSafe, st.EmergencyFreq, st.SafeRate()
		case 2:
			pt.UltReach, pt.UltEm, pt.UltSafe = st.MeanReachTimeSafe, st.EmergencyFreq, st.SafeRate()
		}
	}
	return pt, nil
}

// TransmissionSteps is the Δt_m = Δt_s sweep of Fig. 5a/5b.
func TransmissionSteps() []float64 {
	var xs []float64
	for j := 1; j <= 20; j++ {
		xs = append(xs, 0.05*float64(j))
	}
	return xs
}

// SweepTransmission regenerates Fig. 5a (reaching time) and Fig. 5b
// (emergency frequency) versus the transmission/sensing period under
// otherwise perfect communication.
func SweepTransmission(pl Planners, n int, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, x := range TransmissionSteps() {
		base := baseSim(StandardSettings()[0])
		base.DtM, base.DtS = x, x
		pt, err := sweepAt(x, base, pl, Conservative, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// DropProbabilities is the paper's p_d sweep {0.05·j | j = 0..19}
// (Fig. 5c/5d).
func DropProbabilities() []float64 {
	var xs []float64
	for j := 0; j < 20; j++ {
		xs = append(xs, 0.05*float64(j))
	}
	return xs
}

// SweepDrop regenerates Fig. 5c/5d: reaching time and emergency frequency
// versus the message drop probability with Δt_d = 0.25 s.
func SweepDrop(pl Planners, n int, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, x := range DropProbabilities() {
		base := baseSim(Setting{Comms: comms.Delayed(DelayedDelay, x), Sensor: sensor.Uniform(1)})
		pt, err := sweepAt(x, base, pl, Conservative, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// SensorUncertainties is the paper's δ sweep {1 + 0.2·j | j = 0..19}
// (Fig. 5e/5f).
func SensorUncertainties() []float64 {
	var xs []float64
	for j := 0; j < 20; j++ {
		xs = append(xs, 1+0.2*float64(j))
	}
	return xs
}

// SweepSensor regenerates Fig. 5e/5f: reaching time and emergency frequency
// versus the sensor uncertainty in the "messages lost" setting.
func SweepSensor(pl Planners, n int, seed int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, x := range SensorUncertainties() {
		base := baseSim(Setting{Comms: comms.Lost(), Sensor: sensor.Uniform(x)})
		pt, err := sweepAt(x, base, pl, Conservative, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
