// Package fusion implements the paper's information filter (§III-B): it
// fuses (a) reachability analysis over the latest — possibly delayed —
// V2V message, (b) a sound interval around the latest raw sensor reading
// propagated forward, and (c) a Kalman-filter confidence interval over the
// sensor history (with message rollback/replay), by intersecting the
// intervals, exactly as the paper joins [p1,p2] and [p3,p4] into
// [max(p1,p3), min(p2,p4)].
//
// Components (a) and (b) are sound — the true state is guaranteed inside —
// so the "basic" compound planner (information filter disabled) still has
// the estimates its safety argument needs.  Enabling the Kalman component
// is what the paper calls the information filter: it shrinks the interval
// well below the raw sensor noise, which shrinks the estimated unsafe set
// and improves efficiency.
package fusion

import (
	"fmt"
	"math"

	"safeplan/internal/comms"
	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/kalman"
	"safeplan/internal/reach"
	"safeplan/internal/sensor"
)

// Config selects which estimators participate in the join.
type Config struct {
	Limits dynamics.Limits // physical envelope of the observed vehicle
	Sensor sensor.Config   // sensor noise (for the sound reading interval and KF R)

	// UseKalman enables the Kalman component (the paper's information
	// filter).  When false the estimate is the sound join of message
	// reachability and the propagated raw reading — the "basic" design.
	UseKalman bool
	// SigmaK is the half-width of the KF confidence interval in standard
	// deviations.  Zero selects DefaultSigmaK.
	SigmaK float64
	// Replay enables KF message rollback/replay (paper Fig. 3 extension).
	// Ignored unless UseKalman is set.  Disable only for ablation.
	Replay bool
}

// DefaultSigmaK covers ≳99.7% of Gaussian mass.
const DefaultSigmaK = 3

// soundEps pads the sound components before intersection.  The reachability
// bounds and the simulator's integrator compute the same kinematics in
// different expression orders, so a vehicle driving exactly at its envelope
// limit can land ~1 ulp outside the bound; the pad absorbs that without
// weakening the estimate measurably.
const soundEps = 1e-9

// Estimate is the fused interval knowledge about one observed vehicle at a
// query time.
//
// P and V are the sharpest available intervals (including the Kalman
// component when enabled); SoundP and SoundV are the join of the *sound*
// components only — message reachability and the propagated raw reading —
// and are guaranteed to contain the true state.  Safety-critical consumers
// (the runtime monitor) must use the sound pair; efficiency-oriented
// consumers (the NN planner's unsafe-set estimate) use the sharp pair.
// Without the Kalman component the two pairs coincide.
type Estimate struct {
	P interval.Interval // sharpest possible-position interval
	V interval.Interval // sharpest possible-velocity interval

	SoundP interval.Interval // guaranteed position interval
	SoundV interval.Interval // guaranteed velocity interval

	A float64 // best current acceleration estimate (point value)

	PointP, PointV float64 // point estimates (KF mean, else interval mid)
	HasInfo        bool    // false until any message or reading arrived
}

// Filter fuses messages and sensor readings for a single observed vehicle.
// It is not safe for concurrent use.
type Filter struct {
	cfg    Config
	sigmaK float64
	kf     *kalman.Filter

	haveMsg bool
	msg     reach.Snapshot // latest message content
	msgA    float64        // acceleration reported by that message

	haveReading bool
	reading     sensor.Reading
}

// New creates a Filter.
func New(cfg Config) (*Filter, error) {
	f := &Filter{}
	if err := f.ResetConfig(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// ResetConfig reconfigures the filter in place and clears all fused state,
// reusing the embedded Kalman filter's measurement history buffer.
// Equivalent to replacing the filter with New(cfg).
func (f *Filter) ResetConfig(cfg Config) error {
	if err := cfg.Limits.Validate(); err != nil {
		return fmt.Errorf("fusion: %w", err)
	}
	if err := cfg.Sensor.Validate(); err != nil {
		return fmt.Errorf("fusion: %w", err)
	}
	sigma := cfg.SigmaK
	if sigma <= 0 {
		sigma = DefaultSigmaK
	}
	f.cfg = cfg
	f.sigmaK = sigma
	f.haveMsg = false
	f.haveReading = false
	if cfg.UseKalman {
		kcfg := kalman.Config{
			DeltaP: cfg.Sensor.DeltaP,
			DeltaV: cfg.Sensor.DeltaV,
			DeltaA: cfg.Sensor.DeltaA,
		}
		if f.kf == nil {
			f.kf = kalman.New(kcfg)
		} else {
			f.kf.ResetConfig(kcfg)
		}
	} else {
		f.kf = nil
	}
	return nil
}

// Reset returns the filter to its initial, information-free state.
func (f *Filter) Reset() {
	f.haveMsg = false
	f.haveReading = false
	if f.kf != nil {
		f.kf.Reset()
	}
}

// InitExact seeds the filter with an exactly known initial state, modeling
// the handshake broadcast at scenario start.
func (f *Filter) InitExact(t float64, s dynamics.State, a float64) {
	f.haveMsg = true
	f.msg = reach.Snapshot{T: t, S: s}
	f.msgA = a
	if f.kf != nil {
		f.kf.InitExact(t, s.P, s.V, a)
	}
}

// OnMessage ingests a delivered V2V message.  Stale messages (older than
// the newest one seen) are ignored.
func (f *Filter) OnMessage(m comms.Message) {
	if f.haveMsg && m.T <= f.msg.T {
		return
	}
	f.haveMsg = true
	f.msg = reach.Snapshot{T: m.T, S: dynamics.State{P: m.P, V: m.V}}
	f.msgA = m.A
	if f.kf != nil && f.cfg.Replay {
		f.kf.ApplyMessage(m.T, m.P, m.V, m.A)
	}
}

// OnReading ingests a sensor reading.  Out-of-order readings are ignored.
func (f *Filter) OnReading(r sensor.Reading) {
	if f.haveReading && r.T < f.reading.T {
		return
	}
	f.haveReading = true
	f.reading = r
	if f.kf != nil {
		// Update returns an error only for out-of-order input, which the
		// guard above already filtered; a residual conflict (message replay
		// moved the KF clock past r.T) is benign to skip.
		_ = f.kf.Update(r.T, r.P, r.V, r.A)
	}
}

// EstimateAt returns the fused estimate for the observed vehicle at time t.
func (f *Filter) EstimateAt(t float64) Estimate {
	var est Estimate
	f.EstimateInto(&est, t)
	return est
}

// EstimateInto writes the fused estimate for the observed vehicle at time
// t into *est, overwriting every field.  The steppers call it with the
// per-track slot they keep, so the estimate is built in place instead of
// being returned and copied once per observed vehicle and step.
func (f *Filter) EstimateInto(est *Estimate, t float64) {
	lim := &f.cfg.Limits
	set := reach.Entire(*lim)
	est.A = 0
	est.HasInfo = false

	if f.haveMsg {
		set = set.Intersect(reach.At(f.msg, t, *lim).Expand(soundEps, soundEps))
		est.HasInfo = true
		est.A = f.msgA
	}
	if f.haveReading {
		base := reach.Set{
			P: f.reading.PosInterval(f.cfg.Sensor),
			V: f.reading.VelInterval(f.cfg.Sensor).ClampTo(lim.VMin, lim.VMax),
		}
		prop := reach.FromSet(base, t-f.reading.T, *lim).Expand(soundEps, soundEps)
		if joined := set.Intersect(prop); !joined.IsEmpty() {
			set = joined
		}
		est.HasInfo = true
		if !f.haveMsg || f.reading.T >= f.msg.T {
			est.A = f.reading.A
		}
	}

	est.P, est.V = set.P, set.V
	est.SoundP, est.SoundV = set.P, set.V
	est.PointP, est.PointV = set.P.Mid(), set.V.Mid()

	if f.kf != nil && f.kf.Initialized() {
		// One extrapolation of the Kalman state serves the interval join
		// and the point estimate.
		x, p := f.kf.EstimateAt(t)
		kp, kv := kalman.Interval(x, p, f.sigmaK)
		kv = kv.ClampTo(lim.VMin, lim.VMax)
		joined := reach.Set{P: set.P.Intersect(kp), V: set.V.Intersect(kv)}
		if !joined.IsEmpty() {
			set = joined
			est.P, est.V = set.P, set.V
		}
		// Point estimate from the KF mean, clamped into the sound set.
		if !set.P.IsEmpty() {
			est.PointP = set.P.Clamp(x.X)
		}
		if !set.V.IsEmpty() {
			est.PointV = set.V.Clamp(x.Y)
		}
	}
}

// MessageAge returns t minus the timestamp of the newest message, or +Inf
// when no message has ever arrived.
func (f *Filter) MessageAge(t float64) float64 {
	if !f.haveMsg {
		return math.Inf(1)
	}
	return t - f.msg.T
}
