package experiments

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/eval"
)

// CarFollowRow is one line of the car-following case-study table.
type CarFollowRow struct {
	Setting     string
	PlannerType string

	ReachTime     float64
	SafeRate      float64
	Eta           float64
	EmergencyFreq float64
}

// CarFollowTable evaluates the second case study (paper §II-A's
// distance-gap unsafe set) with the aggressive tailgating κ_n under the
// three communication settings: the same pure/basic/ultimate comparison
// as Tables I–II, demonstrating that the framework generalizes beyond the
// left turn.
func CarFollowTable(n int, seed int64) ([]CarFollowRow, error) {
	if n <= 0 {
		n = DefaultEpisodes / 4
	}
	sc := carfollow.DefaultConfig()
	aggr := carfollow.AggressiveExpert(sc)
	var rows []CarFollowRow
	for _, s := range StandardSettings() {
		base := carfollow.DefaultSimConfig()
		base.Comms = s.Comms
		base.Sensor = s.Sensor
		designs := []struct {
			label string
			agent carfollow.Agent
			info  bool
		}{
			{"pure NN", &carfollow.Pure{Cfg: sc, Planner: aggr}, false},
			{"basic", carfollow.NewBasic(sc, aggr), false},
			{"ultimate", carfollow.NewUltimate(sc, aggr), true},
		}
		for _, d := range designs {
			cfg := base
			cfg.InfoFilter = d.info
			rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.CarFollow(cfg, d.agent))
			if err != nil {
				return nil, fmt.Errorf("experiments: carfollow %s/%s: %w", s.Name, d.label, err)
			}
			st := eval.Aggregate(rs)
			rows = append(rows, CarFollowRow{
				Setting:       s.Name,
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
