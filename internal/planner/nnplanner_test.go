package planner

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"safeplan/internal/dynamics"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
)

// TestNNPlannerConcurrentAccel shares one NN planner across goroutines, as
// campaign workers do: every call must match a serial pass bit for bit,
// and under -race no call may write state another one reads.
func TestNNPlannerConcurrentAccel(t *testing.T) {
	const workers, calls = 8, 100
	c := scenario()
	rng := rand.New(rand.NewSource(28))
	type input struct {
		t   float64
		ego dynamics.State
		win interval.Interval
	}
	in := make([]input, workers*calls)
	x := mat.NewDense(len(in), leftturn.FeatureCount)
	for i := range in {
		lo := rng.Float64() * 8
		in[i] = input{
			t:   rng.Float64() * 10,
			ego: dynamics.State{P: -60 + rng.Float64()*50, V: rng.Float64() * c.Ego.VMax},
			win: interval.New(lo, lo+rng.Float64()*4),
		}
		copy(x.Row(i), leftturn.Features(in[i].t, in[i].ego, in[i].win))
	}
	p := &NNPlanner{
		Label:  "nn-test",
		Net:    nn.NewMLP(rng, nn.Tanh{}, leftturn.FeatureCount, 32, 32, 1),
		Norm:   nn.FitNormalizer(x),
		Limits: c.Ego,
	}
	want := make([]float64, len(in))
	for i, v := range in {
		want[i] = p.Accel(v.t, v.ego, v.win)
	}
	got := make([]float64, len(in))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in); i += workers {
				got[i] = p.Accel(in[i].t, in[i].ego, in[i].win)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("call %d: concurrent Accel %v, serial %v", i, got[i], want[i])
		}
	}
}
