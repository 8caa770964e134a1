package carfollow

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"safeplan/internal/dynamics"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
)

// TestNNPlannerConcurrentAccel shares one car-following NN planner across
// goroutines, as campaign workers do: every call must match a serial pass
// bit for bit, and under -race no call may write state another one reads.
func TestNNPlannerConcurrentAccel(t *testing.T) {
	const workers, calls = 8, 100
	c := DefaultConfig()
	rng := rand.New(rand.NewSource(28))
	type input struct {
		ego   dynamics.State
		lead  LeadEstimate
		brake float64
	}
	in := make([]input, workers*calls)
	x := mat.NewDense(len(in), FeatureCount)
	for i := range in {
		ego := dynamics.State{V: rng.Float64() * c.Ego.VMax}
		lead := dynamics.State{P: c.PGap + rng.Float64()*60, V: rng.Float64() * c.Lead.VMax}
		in[i] = input{ego: ego, lead: ExactLead(lead, rng.Float64()*4-3), brake: c.Lead.AMin}
		f := c.Features(in[i].ego, in[i].lead, in[i].brake)
		copy(x.Row(i), f[:])
	}
	p := &NNPlanner{
		Label: "cf-nn-test",
		Net:   nn.NewMLP(rng, nn.Tanh{}, FeatureCount, 24, 24, 1),
		Norm:  nn.FitNormalizer(x),
		Cfg:   c,
	}
	want := make([]float64, len(in))
	for i, v := range in {
		want[i] = p.Accel(0, v.ego, v.lead, v.brake)
	}
	got := make([]float64, len(in))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in); i += workers {
				got[i] = p.Accel(0, in[i].ego, in[i].lead, in[i].brake)
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
