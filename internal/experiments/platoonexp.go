package experiments

import (
	"fmt"
	"math"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/eval"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
)

// PlatoonRow is one line of the platoon case-study table.
type PlatoonRow struct {
	Setting  string
	Vehicles int

	SafeRate      float64
	Eta           float64
	EmergencyFreq float64
	// MinLinkGap is the smallest bumper gap observed on any follower link
	// across the campaign [m]; NaN when the chain has no follower links
	// (Vehicles = 2 — the car-following scenario, covered by its own table).
	MinLinkGap float64
	// MaxAmp is the worst consecutive-link amplification of the peak gap
	// error observed in any episode: max over links ℓ of
	// peak|e_{ℓ+1}| / max(peak|e_ℓ|, floor).  Values at or below
	// 1 + platoon.DefaultAmpTol indicate string-stable behaviour; NaN when
	// the chain has fewer than two follower links.
	MaxAmp float64
}

// PlatoonTable evaluates the N-vehicle chained-link platoon under the
// ultimate compound design: first a chain-length sweep under the
// "messages delayed" setting, then — at a fixed four-vehicle chain — the
// adversarial burst preset rotated over each individual link, the
// disturbance geometry the per-link channel design exists for.
func PlatoonTable(n int, seed int64) ([]PlatoonRow, error) {
	if n <= 0 {
		n = DefaultEpisodes / 4
	}
	type entry struct {
		label string
		cfg   platoon.SimConfig
	}
	var entries []entry

	delayed := StandardSettings()[1]
	for _, vehicles := range []int{2, 3, 4, 6} {
		cfg := platoon.DefaultSimConfig()
		cfg.Vehicles = vehicles
		cfg.Comms = delayed.Comms
		cfg.Sensor = delayed.Sensor
		cfg.InfoFilter = true
		entries = append(entries, entry{fmt.Sprintf("delayed all links, N=%d", vehicles), cfg})
	}

	bm, err := disturb.Preset("burst")
	if err != nil {
		return nil, fmt.Errorf("experiments: platoon: %w", err)
	}
	for link := 0; link < 3; link++ {
		cfg := platoon.DefaultSimConfig() // four vehicles, three links
		cfg.InfoFilter = true
		lc := make([]comms.Config, cfg.Vehicles-1)
		for l := range lc {
			lc[l] = comms.NoDisturbance()
		}
		lc[link] = comms.Disturbed(bm)
		cfg.LinkComms = lc
		entries = append(entries, entry{fmt.Sprintf("burst on link %d, N=4", link), cfg})
	}

	var rows []PlatoonRow
	for _, e := range entries {
		sc := e.cfg.LinkScenario()
		agent := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
		rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.Platoon(e.cfg, agent))
		if err != nil {
			return nil, fmt.Errorf("experiments: platoon %s: %w", e.label, err)
		}
		st := eval.Aggregate(rs)
		rows = append(rows, PlatoonRow{
			Setting:       e.label,
			Vehicles:      e.cfg.Vehicles,
			SafeRate:      st.SafeRate(),
			Eta:           st.MeanEta,
			EmergencyFreq: st.EmergencyFreq,
			MinLinkGap:    minLinkGap(rs),
			MaxAmp:        maxLinkAmplification(rs),
		})
	}
	return rows, nil
}

// minLinkGap is the smallest follower-link gap observed anywhere in the
// campaign; NaN when no episode recorded link statistics.
func minLinkGap(rs []sim.Result) float64 {
	m := math.Inf(1)
	for _, r := range rs {
		for _, l := range r.Links {
			m = math.Min(m, l.MinGap)
		}
	}
	if math.IsInf(m, 1) {
		return math.NaN()
	}
	return m
}

// maxLinkAmplification is the worst consecutive-link peak-gap-error ratio
// observed in any episode, floored the same way the string-stability
// invariant floors its comparison so near-zero upstream errors don't
// explode the ratio.
func maxLinkAmplification(rs []sim.Result) float64 {
	m := math.NaN()
	for _, r := range rs {
		for l := 0; l+1 < len(r.Links); l++ {
			amp := r.Links[l+1].PeakGapErr / math.Max(r.Links[l].PeakGapErr, platoon.DefaultFloor)
			if math.IsNaN(m) || amp > m {
				m = amp
			}
		}
	}
	return m
}
