package experiments

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/eval"
	"safeplan/internal/sim"
)

// StreamRow is one line of the multi-vehicle extension study: the three
// designs against an oncoming stream of a given size.
type StreamRow struct {
	Vehicles    int
	PlannerType string

	ReachTime     float64
	SafeRate      float64
	Eta           float64
	EmergencyFreq float64
}

// StreamSizes is the vehicle-count sweep of the extension study.
func StreamSizes() []int { return []int{1, 2, 3, 4} }

// StreamTable evaluates the pure, basic, and ultimate designs (aggressive
// κ_n — the interesting case, since its collision risk compounds per
// vehicle) against oncoming streams of increasing size under the
// "messages delayed" setting.  This extends the paper's single-vehicle
// evaluation to its own multi-vehicle system model (§II-A).
func StreamTable(pl Planners, n int, seed int64) ([]StreamRow, error) {
	if n <= 0 {
		n = DefaultEpisodes / 4
	}
	p := pl.Aggr
	var rows []StreamRow
	for _, vehicles := range StreamSizes() {
		base := sim.DefaultMultiConfig()
		s := StandardSettings()[1] // messages delayed
		base.Comms = s.Comms
		base.Sensor = s.Sensor
		base.Vehicles = vehicles
		sc := base.Scenario

		designs := []struct {
			label string
			agent core.MultiAgent
			info  bool
		}{
			{"pure NN", &core.MultiPure{Cfg: sc, Planner: p}, false},
			{"basic", core.NewMultiBasic(sc, p), false},
			{"ultimate", core.NewMultiUltimate(sc, p), true},
		}
		for _, d := range designs {
			cfg := base
			cfg.InfoFilter = d.info
			rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.MultiVehicle(cfg, d.agent))
			if err != nil {
				return nil, fmt.Errorf("experiments: stream %d/%s: %w", vehicles, d.label, err)
			}
			st := eval.Aggregate(rs)
			rows = append(rows, StreamRow{
				Vehicles:      vehicles,
				PlannerType:   d.label,
				ReachTime:     st.MeanReachTimeSafe,
				SafeRate:      st.SafeRate(),
				Eta:           st.MeanEta,
				EmergencyFreq: st.EmergencyFreq,
			})
		}
	}
	return rows, nil
}
