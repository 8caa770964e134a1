// Package nn is a from-scratch feed-forward neural-network substrate: dense
// layers, common activations, mean-squared-error training with Adam,
// and JSON serialization.  It exists so the repository can *train* the
// NN-based planners (κ_n) that the safety framework wraps — the paper
// obtains them with the method of its reference [6]; here they are learned
// by imitation of analytic expert policies (see internal/planner).
//
// The implementation is deliberately small and deterministic: stdlib only,
// no goroutines, all randomness injected via *rand.Rand.
package nn

import "math"

// Activation is an element-wise nonlinearity with its derivative.
type Activation interface {
	// Name identifies the activation in serialized models.
	Name() string
	// Apply computes f(x).
	Apply(x float64) float64
	// Derivative computes f'(x) given the pre-activation x.
	Derivative(x float64) float64
}

// ReLU is max(0, x).
type ReLU struct{}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// Apply implements Activation.
func (ReLU) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Derivative implements Activation.
func (ReLU) Derivative(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

// LeakyReLU is x for x>0 and αx otherwise; the zero value uses α = 0.01.
type LeakyReLU struct {
	Alpha float64
}

// Name implements Activation.
func (LeakyReLU) Name() string { return "leaky_relu" }

func (l LeakyReLU) alpha() float64 {
	if l.Alpha == 0 {
		return 0.01
	}
	return l.Alpha
}

// Apply implements Activation.
func (l LeakyReLU) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return l.alpha() * x
}

// Derivative implements Activation.
func (l LeakyReLU) Derivative(x float64) float64 {
	if x > 0 {
		return 1
	}
	return l.alpha()
}

// Tanh is the hyperbolic tangent.
type Tanh struct{}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Apply implements Activation.
func (Tanh) Apply(x float64) float64 { return math.Tanh(x) }

// Derivative implements Activation.
func (Tanh) Derivative(x float64) float64 {
	t := math.Tanh(x)
	return 1 - t*t
}

// Sigmoid is the logistic function.
type Sigmoid struct{}

// Name implements Activation.
func (Sigmoid) Name() string { return "sigmoid" }

// Apply implements Activation.
func (Sigmoid) Apply(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Derivative implements Activation.
func (Sigmoid) Derivative(x float64) float64 {
	s := 1 / (1 + math.Exp(-x))
	return s * (1 - s)
}

// Identity is f(x) = x, used for linear output layers in regression.
type Identity struct{}

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// Apply implements Activation.
func (Identity) Apply(x float64) float64 { return x }

// Derivative implements Activation.
func (Identity) Derivative(float64) float64 { return 1 }

// ActivationByName returns the activation registered under name, used when
// deserializing models.
func ActivationByName(name string) (Activation, bool) {
	switch name {
	case "relu":
		return ReLU{}, true
	case "leaky_relu":
		return LeakyReLU{}, true
	case "tanh":
		return Tanh{}, true
	case "sigmoid":
		return Sigmoid{}, true
	case "identity":
		return Identity{}, true
	}
	return nil, false
}
