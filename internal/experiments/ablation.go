package experiments

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/eval"
	"safeplan/internal/monitor"
	"safeplan/internal/sim"
)

// AblationRow reports one design variant of the ablation study
// (DESIGN.md §6) under the "messages delayed" setting.
type AblationRow struct {
	Variant string

	ReachTime     float64
	SafeRate      float64
	Eta           float64
	EmergencyFreq float64
}

// Ablations runs the design-choice ablations around the ultimate compound
// planner with the conservative κ_n:
//
//	full            — information filter + aggressive set (the ultimate design)
//	no-filter       — aggressive set but no Kalman component
//	no-aggressive   — information filter but conservative κ_n input
//	no-replay       — information filter without message rollback/replay
//	fused-monitor   — the paper's literal design: the monitor consumes the
//	                  Kalman-joined estimate instead of the sound one
//	basic           — neither technique (the basic compound design)
func Ablations(pl Planners, n int, seed int64) ([]AblationRow, error) {
	if n <= 0 {
		n = DefaultEpisodes
	}
	base := baseSim(StandardSettings()[1]) // messages delayed
	sc := base.Scenario
	p := pl.Cons

	type variant struct {
		name  string
		cfg   sim.Config
		agent core.Agent
	}
	mk := func(name string, infoFilter, noReplay, aggressive, fusedMonitor bool) variant {
		cfg := base
		cfg.InfoFilter = infoFilter
		cfg.NoReplay = noReplay
		ag := &core.Compound{
			Cfg:            sc,
			Planner:        p,
			Monitor:        monitor.New(sc),
			AggressiveSet:  aggressive,
			MonitorOnFused: fusedMonitor,
		}
		return variant{name: name, cfg: cfg, agent: ag}
	}
	variants := []variant{
		mk("full", true, false, true, false),
		mk("no-filter", false, false, true, false),
		mk("no-aggressive", true, false, false, false),
		mk("no-replay", true, true, true, false),
		mk("fused-monitor", true, false, true, true),
		mk("basic", false, false, false, false),
	}

	var rows []AblationRow
	for _, v := range variants {
		rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.LeftTurn(v.cfg, v.agent))
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		st := eval.Aggregate(rs)
		rows = append(rows, AblationRow{
			Variant:       v.name,
			ReachTime:     st.MeanReachTimeSafe,
			SafeRate:      st.SafeRate(),
			Eta:           st.MeanEta,
			EmergencyFreq: st.EmergencyFreq,
		})
	}
	return rows, nil
}
