package planner

import (
	"fmt"
	"os"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/nn"
)

// NNPlanner is a neural-network-based planner κ_n: a trained regression
// network over the paper's 5 input features (t, p0, v0, τ1,min, τ1,max)
// producing the commanded acceleration.
type NNPlanner struct {
	Label  string
	Net    *nn.Network
	Norm   *nn.Normalizer  // input standardization baked in at training time
	Limits dynamics.Limits // ego envelope for output clamping
}

// Name implements Planner.
func (p *NNPlanner) Name() string { return p.Label }

// Accel implements Planner.  It writes nothing to p, so one planner may
// serve concurrent campaign workers.
func (p *NNPlanner) Accel(t float64, ego dynamics.State, oncoming interval.Interval) float64 {
	var x [leftturn.FeatureCount]float64 // network input, on the stack
	leftturn.FeaturesInto(x[:], t, ego, oncoming)
	if p.Norm != nil {
		p.Norm.Apply(x[:])
	}
	a := p.Net.Predict1(x[:])
	if a > p.Limits.AMax {
		a = p.Limits.AMax
	}
	if a < p.Limits.AMin {
		a = p.Limits.AMin
	}
	return a
}

// Save writes the planner's model (network + normalizer) to path.
func (p *NNPlanner) Save(path string) error {
	data, err := nn.MarshalModel(p.Net, p.Norm)
	if err != nil {
		return fmt.Errorf("planner: marshal %s: %w", p.Label, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("planner: save %s: %w", p.Label, err)
	}
	return nil
}

// LoadNNPlanner reads a model saved by Save.
func LoadNNPlanner(path, label string, limits dynamics.Limits) (*NNPlanner, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("planner: load %s: %w", label, err)
	}
	net, norm, err := nn.UnmarshalModel(data)
	if err != nil {
		return nil, fmt.Errorf("planner: load %s: %w", label, err)
	}
	if net.InputDim() != 5 || net.OutputDim() != 1 {
		return nil, fmt.Errorf("planner: model %s has shape %d→%d, want 5→1",
			label, net.InputDim(), net.OutputDim())
	}
	return &NNPlanner{Label: label, Net: net, Norm: norm, Limits: limits}, nil
}
