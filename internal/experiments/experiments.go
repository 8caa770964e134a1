// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Tables I–II (planner comparison under three
// communication settings), Figures 5a–5f (reaching time and emergency
// frequency versus transmission period, drop probability, and sensor
// uncertainty), Figures 6a–6b (information-filter and passing-window
// traces), the §V-C RMSE study, and the ablations listed in DESIGN.md §6.
//
// Every experiment is a pure function of (configuration, episode count,
// base seed) and is exercised both by cmd/tables / cmd/figures and by the
// benchmark harness in the repository root.
package experiments

import (
	"fmt"
	"math"
	"path/filepath"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/eval"
	"safeplan/internal/leftturn"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// Defaults used by the shipped harness; the paper ran 80 000 episodes per
// setting (pass n = 80000 for full scale).
const (
	DefaultEpisodes = 2000
	DefaultSeed     = 42

	// DelayedDropProb is the representative drop probability used inside
	// Tables I–II for the "messages delayed" row (the paper sweeps p_d in
	// Fig. 5c/d but does not state the table's value; see EXPERIMENTS.md).
	DelayedDropProb = 0.5
	// DelayedDelay is the paper's Δt_d.
	DelayedDelay = 0.25
	// LostSensorDelta is the representative sensor uncertainty for the
	// "messages lost" table row (the paper sweeps δ in Fig. 5e/f).
	LostSensorDelta = 2.0
)

// Setting is one communication scenario of the evaluation.
type Setting struct {
	Name   string
	Comms  comms.Config
	Sensor sensor.Config
}

// StandardSettings returns the paper's three communication settings.
func StandardSettings() []Setting {
	return []Setting{
		{Name: "no disturbance", Comms: comms.NoDisturbance(), Sensor: sensor.Uniform(1)},
		{Name: "messages delayed", Comms: comms.Delayed(DelayedDelay, DelayedDropProb), Sensor: sensor.Uniform(1)},
		{Name: "messages lost", Comms: comms.Lost(), Sensor: sensor.Uniform(LostSensorDelta)},
	}
}

// PlannerKind selects which κ_n family an experiment evaluates.
type PlannerKind int

// The two NN-planner families of the evaluation.
const (
	Conservative PlannerKind = iota
	Aggressive
)

func (k PlannerKind) String() string {
	if k == Conservative {
		return "conservative"
	}
	return "aggressive"
}

// Planners bundles the two κ_n used throughout the evaluation.
type Planners struct {
	Cons planner.Planner
	Aggr planner.Planner
}

// ExpertPlanners returns the analytic expert policies as κ_n — fast to
// construct, used by unit tests and quick runs.
func ExpertPlanners(cfg leftturn.Config) Planners {
	return Planners{
		Cons: planner.ConservativeExpert(cfg),
		Aggr: planner.AggressiveExpert(cfg),
	}
}

// TrainedPlanners imitation-trains the two NN planners (the evaluation's
// κ_n,cons and κ_n,aggr).  Deterministic for a given seed.
func TrainedPlanners(cfg leftturn.Config, seed int64) (Planners, error) {
	cons, _, err := planner.TrainNNPlanner(cfg, planner.ConservativeExpert(cfg), "nn-cons",
		planner.TrainOptions{Seed: seed})
	if err != nil {
		return Planners{}, fmt.Errorf("experiments: train conservative: %w", err)
	}
	aggr, _, err := planner.TrainNNPlanner(cfg, planner.AggressiveExpert(cfg), "nn-aggr",
		planner.TrainOptions{Seed: seed + 1})
	if err != nil {
		return Planners{}, fmt.Errorf("experiments: train aggressive: %w", err)
	}
	return Planners{Cons: cons, Aggr: aggr}, nil
}

// Pick returns the planner of the given kind.
func (p Planners) Pick(k PlannerKind) planner.Planner {
	if k == Conservative {
		return p.Cons
	}
	return p.Aggr
}

// SettingConfig builds the sim configuration for a setting — the exact
// configuration the table experiments run, exported so campaign harnesses
// (cmd/bench) benchmark the same workloads the paper evaluates.
func SettingConfig(s Setting) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Comms = s.Comms
	cfg.Sensor = s.Sensor
	return cfg
}

// baseSim is the internal alias used by the table/figure experiments.
func baseSim(s Setting) sim.Config { return SettingConfig(s) }

// agents builds the three evaluation agents (pure, basic, ultimate) with
// their matching filter configurations.
func agents(sc leftturn.Config, p planner.Planner, base sim.Config) []struct {
	Label string
	Agent core.Agent
	Cfg   sim.Config
} {
	pureCfg := base
	basicCfg := base
	ultCfg := base
	ultCfg.InfoFilter = true
	return []struct {
		Label string
		Agent core.Agent
		Cfg   sim.Config
	}{
		{"pure NN", &core.PureNN{Cfg: sc, Planner: p}, pureCfg},
		{"basic", core.NewBasic(sc, p), basicCfg},
		{"ultimate", core.NewUltimate(sc, p), ultCfg},
	}
}

// TableRow is one line of Table I or II.
type TableRow struct {
	Setting     string
	PlannerType string

	ReachTime     float64 // mean reaching time over safe episodes [s]
	SafeRate      float64 // fraction of safe episodes
	Eta           float64 // mean η
	Winning       float64 // fraction of episodes the ultimate design beats this one (NaN for the ultimate row)
	EmergencyFreq float64 // fraction of steps under κ_e (NaN for the pure row)
}

// Table regenerates Table I (kind = Conservative) or Table II
// (kind = Aggressive): for each communication setting it runs the pure,
// basic, and ultimate designs over the same n seeds and aggregates the
// paper's statistics.
func Table(kind PlannerKind, pl Planners, n int, seed int64) ([]TableRow, error) {
	if n <= 0 {
		n = DefaultEpisodes
	}
	p := pl.Pick(kind)
	var rows []TableRow
	for _, s := range StandardSettings() {
		base := baseSim(s)
		stats := make([]eval.Stats, 3)
		ags := agents(base.Scenario, p, base)
		for i, ag := range ags {
			rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, campaign.LeftTurn(ag.Cfg, ag.Agent))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", s.Name, ag.Label, err)
			}
			stats[i] = eval.Aggregate(rs)
		}
		for i, ag := range ags {
			row := TableRow{
				Setting:       s.Name,
				PlannerType:   ag.Label,
				ReachTime:     stats[i].MeanReachTimeSafe,
				SafeRate:      stats[i].SafeRate(),
				Eta:           stats[i].MeanEta,
				Winning:       math.NaN(),
				EmergencyFreq: stats[i].EmergencyFreq,
			}
			if ag.Label != "ultimate" {
				w, err := eval.WinningPercentage(stats[2].Etas, stats[i].Etas)
				if err != nil {
					return nil, err
				}
				row.Winning = w
			}
			if ag.Label == "pure NN" {
				row.EmergencyFreq = math.NaN()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Model file names that cmd/train writes and LoadPlanners reads.
const (
	ConsModelFile = "nn-cons.json"
	AggrModelFile = "nn-aggr.json"
)

// LoadPlanners reads the two NN planners cmd/train saved to dir.
func LoadPlanners(dir string, cfg leftturn.Config) (Planners, error) {
	cons, err := planner.LoadNNPlanner(filepath.Join(dir, ConsModelFile), "nn-cons", cfg.Ego)
	if err != nil {
		return Planners{}, err
	}
	aggr, err := planner.LoadNNPlanner(filepath.Join(dir, AggrModelFile), "nn-aggr", cfg.Ego)
	if err != nil {
		return Planners{}, err
	}
	return Planners{Cons: cons, Aggr: aggr}, nil
}
