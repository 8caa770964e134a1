// Package platoon generalizes the car-following case study
// (internal/carfollow) to an N-vehicle chain with chained V2V links — the
// ReachMM platooning setting mapped onto the paper's §II-A distance-gap
// unsafe set.
//
// Vehicle 0 is the exogenous head (the stop-and-go lead of the
// car-following study, and the disturbance source for string stability).
// Vehicle 1 is the NN-controlled ego: its planner runs under the full
// κ_n/κ_e compound stack — unsafe-set and boundary-safe-set monitoring on
// the sound estimate, optional guard and fault injection — exactly as in
// carfollow.  Vehicles 2..N−1 are analytic followers: each tracks its
// predecessor with the conservative expert cruise law on the fused
// estimate and falls back to κ_e (maximum braking) whenever its link's
// sound estimate puts it in the unsafe or boundary safe set.
//
// Every inter-vehicle link ℓ (vehicle ℓ → vehicle ℓ+1) carries its own
// communication channel, sensor stream, and fusion filter, each with an
// independently derived random stream and an optional per-link
// disturbance model — so burst loss can hit any segment of the chain
// independently of the others.
//
// The unsafe set is pairwise: every gap p_ℓ − p_{ℓ+1} must stay at or
// above the scenario's PGap (FixedGap, the paper's §II-A set), or — as a
// config switch — above the ReachMM ACC time-gap requirement
// DDefault + TGap·v_follower (TimeGap).
//
// The package holds no engine of its own.  NewStepper resolves a
// SimConfig to a carfollow.Chain and runs it on the one stop-and-go chain
// engine, carfollow.Stepper, whose two-vehicle case is car following; a
// two-vehicle platoon under FixedGap therefore is the car-following
// episode, which the differential test pins at matched config and seed.
package platoon

import (
	"fmt"
	"math"

	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
)

// GapSpec selects the pairwise unsafe-set variant.
type GapSpec int

const (
	// FixedGap is the paper's §II-A distance-gap set: every bumper gap
	// must stay at or above Scenario.PGap.  This is the variant the
	// framework's hard guarantee (and the platoon-smoke gate) covers.
	FixedGap GapSpec = iota
	// TimeGap is the ReachMM ACC specification (ojcsys2023.py):
	// Drel ≥ DDefault + TGap·v_ego for every follower.  The monitor stack
	// runs on the DDefault floor of the requirement, so a breach of the
	// speed-dependent part is possible and is scored as a collision; the
	// guarantee is not claimed for this variant.
	TimeGap
)

// DefaultDDefault and DefaultTGap are the ReachMM ACC constants used when
// a TimeGap config leaves them zero.
const (
	DefaultDDefault = 10.0
	DefaultTGap     = 1.4
)

// FollowerGains tunes the analytic follower controller (vehicles 2..N−1).
// Zero fields select the conservative expert's values (see
// carfollow.ConservativeExpert): Headway 1.8 s, Buffer 4 m, GainGap 0.5,
// GainSpeed 0.9.
type FollowerGains struct {
	Headway   float64 // time headway [s]
	Buffer    float64 // constant extra spacing [m]
	GainGap   float64 // accel per metre of gap error
	GainSpeed float64 // accel per m/s of speed difference
}

// fill resolves zero fields to the conservative-expert defaults.
func (g FollowerGains) fill() FollowerGains {
	if g.Headway == 0 {
		g.Headway = 1.8
	}
	if g.Buffer == 0 {
		g.Buffer = 4
	}
	if g.GainGap == 0 {
		g.GainGap = 0.5
	}
	if g.GainSpeed == 0 {
		g.GainSpeed = 0.9
	}
	return g
}

// SimConfig assembles a platoon campaign.  It embeds the car-following
// SimConfig — scenario constants, default communication/sensing stack,
// the head's stop-and-go workload, guard and fault-injection wiring — and
// adds the chain structure on top.  A SimConfig with Vehicles = 2 and no
// per-link overrides is exactly the embedded carfollow.SimConfig.
type SimConfig struct {
	carfollow.SimConfig

	// Vehicles is the chain length N including the exogenous head (≥ 2).
	// N = 2 is precisely the car-following scenario.
	Vehicles int

	// Spacing is the initial bumper gap of the follower links (vehicle i ≥
	// 2 starts Spacing behind its predecessor) [m].  Zero derives it from
	// the scenario's initial head gap (LeadInit.P − EgoInit.P).
	Spacing float64

	// LinkComms, when non-empty, must have Vehicles−1 entries: entry ℓ
	// configures the V2V channel of link ℓ (vehicle ℓ → vehicle ℓ+1).
	// Empty selects the embedded Comms config for every link.
	LinkComms []comms.Config

	// LinkSensorDisturb, when non-empty, must have Vehicles−1 entries:
	// entry ℓ injects sensing faults on link ℓ (nil entries leave that
	// link clean).  Empty applies the embedded SensorDisturb (possibly
	// nil) to every link.
	LinkSensorDisturb []disturb.SensorModel

	// Spec selects the pairwise unsafe-set variant; DDefault and TGap
	// parameterize the TimeGap requirement (zeroes select the ReachMM
	// defaults).  Both are ignored under FixedGap.
	Spec     GapSpec
	DDefault float64
	TGap     float64

	// Follow tunes the analytic follower controller.
	Follow FollowerGains
}

// DefaultSimConfig returns a four-vehicle platoon over the car-following
// evaluation defaults: head + NN ego + two followers, every link on the
// same channel/sensor configuration, FixedGap spec.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		SimConfig: carfollow.DefaultSimConfig(),
		Vehicles:  4,
	}
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if err := c.SimConfig.Validate(); err != nil {
		return err
	}
	if c.Vehicles < 2 {
		return fmt.Errorf("platoon: need at least two vehicles (head + ego), got %d", c.Vehicles)
	}
	if math.IsNaN(c.Spacing) || math.IsInf(c.Spacing, 0) || c.Spacing < 0 {
		return fmt.Errorf("platoon: bad spacing %v", c.Spacing)
	}
	if n := len(c.LinkComms); n != 0 && n != c.Vehicles-1 {
		return fmt.Errorf("platoon: LinkComms has %d entries, need 0 or %d", n, c.Vehicles-1)
	}
	for l, cc := range c.LinkComms {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("platoon: link %d comms: %w", l, err)
		}
	}
	if n := len(c.LinkSensorDisturb); n != 0 && n != c.Vehicles-1 {
		return fmt.Errorf("platoon: LinkSensorDisturb has %d entries, need 0 or %d", n, c.Vehicles-1)
	}
	for l, m := range c.LinkSensorDisturb {
		if m == nil {
			continue
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("platoon: link %d sensor disturbance: %w", l, err)
		}
	}
	switch c.Spec {
	case FixedGap:
	case TimeGap:
		for _, f := range []struct {
			name string
			v    float64
		}{{"DDefault", c.DDefault}, {"TGap", c.TGap}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("platoon: bad %s %v", f.name, f.v)
			}
		}
	default:
		return fmt.Errorf("platoon: unknown gap spec %d", c.Spec)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Follow.Headway", c.Follow.Headway}, {"Follow.Buffer", c.Follow.Buffer},
		{"Follow.GainGap", c.Follow.GainGap}, {"Follow.GainSpeed", c.Follow.GainSpeed},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("platoon: bad %s %v", f.name, f.v)
		}
	}
	if sp := c.spacing(); sp <= c.LinkScenario().PGap {
		return fmt.Errorf("platoon: initial follower spacing %v already violates the gap requirement", sp)
	}
	return nil
}

// spacing resolves the initial follower gap: Spacing, or the scenario's
// initial head gap when zero.
func (c SimConfig) spacing() float64 {
	if c.Spacing > 0 {
		return c.Spacing
	}
	return c.Scenario.LeadInit.P - c.Scenario.EgoInit.P
}

// dDefault and tGap resolve the TimeGap constants.  They take pointer
// receivers, so a per-step caller does not copy the whole SimConfig each
// time.
func (c *SimConfig) dDefault() float64 {
	if c.DDefault > 0 {
		return c.DDefault
	}
	return DefaultDDefault
}

func (c *SimConfig) tGap() float64 {
	if c.TGap > 0 {
		return c.TGap
	}
	return DefaultTGap
}

// LinkScenario returns the effective per-link scenario constants the
// monitor/guard stack runs on.  Under FixedGap it is the embedded
// Scenario unchanged; under TimeGap the PGap is replaced by the
// requirement's speed-independent floor DDefault (the monitor keeps the
// paper's fixed-gap machinery; the speed-dependent part is scored by the
// violation predicate, not guaranteed).  Agents for the NN vehicle should
// be constructed against this config so their monitoring matches the
// engine's.
func (c SimConfig) LinkScenario() carfollow.Config {
	sc := c.Scenario
	if c.Spec == TimeGap {
		sc.PGap = c.dDefault()
	}
	return sc
}
