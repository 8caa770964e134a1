// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Tables I–II (planner comparison under three
// communication settings), Figures 5a–5f (reaching time and emergency
// frequency versus transmission period, drop probability, and sensor
// uncertainty), Figures 6a–6b (information-filter and passing-window
// traces), the §V-C RMSE study, and the ablations listed in DESIGN.md §6.
//
// Every study is one entry of the table Studies returns, and a pure
// function of (planners, episode count, base seed): cmd/figures writes
// each as a table, chart or CSV, and the benchmark harness in the
// repository root times its campaigns.
package experiments

import (
	"fmt"
	"path/filepath"

	"safeplan/internal/comms"
	"safeplan/internal/leftturn"
	"safeplan/internal/planner"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// DefaultSeed is the base seed of the shipped harness.  The paper ran
// 80 000 episodes per setting (cmd/figures -n 80000 for full scale).
const (
	DefaultSeed = 42

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

// trainedPlanners imitation-trains the two NN planners (the evaluation's
// κ_n,cons and κ_n,aggr).  Deterministic for a given seed.
func trainedPlanners(cfg leftturn.Config, seed int64) (Planners, error) {
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

// SettingConfig builds the sim configuration for a setting — the exact
// configuration the table experiments run, exported so campaign harnesses
// (cmd/bench) benchmark the same workloads the paper evaluates.
func SettingConfig(s Setting) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Comms = s.Comms
	cfg.Sensor = s.Sensor
	return cfg
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

// ResolvePlanners returns the κ_n pair an evaluation runs: the NN planners
// saved in modelsDir when it is set, else freshly imitation-trained ones
// (seeded by seed) when train is set, else the analytic experts.
func ResolvePlanners(cfg leftturn.Config, modelsDir string, train bool, seed int64) (Planners, error) {
	switch {
	case modelsDir != "":
		return LoadPlanners(modelsDir, cfg)
	case train:
		return trainedPlanners(cfg, seed)
	}
	return ExpertPlanners(cfg), nil
}
