package nn

import "math"

// Optimizer updates a network's parameters from the gradients accumulated
// by the latest Backward pass.
type Optimizer interface {
	// Step applies one update to every parameter of n.
	Step(n *Network)
}

// Adam is the Adam optimizer (Kingma & Ba) with standard defaults filled in
// for zero-valued fields: β1 = 0.9, β2 = 0.999, ε = 1e-8.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64

	t    int
	m, v [][]float64
}

func (a *Adam) defaults() (b1, b2, eps float64) {
	b1, b2, eps = a.Beta1, a.Beta2, a.Eps
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	return
}

// Step implements Optimizer.
func (a *Adam) Step(n *Network) {
	ps := n.params()
	if a.m == nil {
		a.m = make([][]float64, len(ps))
		a.v = make([][]float64, len(ps))
		for i, p := range ps {
			a.m[i] = make([]float64, len(p.w))
			a.v[i] = make([]float64, len(p.w))
		}
	}
	b1, b2, eps := a.defaults()
	a.t++
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for i, p := range ps {
		m, v := a.m[i], a.v[i]
		for j := range p.w {
			g := p.g[j]
			m[j] = b1*m[j] + (1-b1)*g
			v[j] = b2*v[j] + (1-b2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.w[j] -= a.LR * mh / (math.Sqrt(vh) + eps)
		}
	}
}
