package ibp

import (
	"math"
	"math/rand"
	"testing"

	"safeplan/internal/interval"
	"safeplan/internal/nn"
)

// byteAt reads data[i] with a zero default, so short fuzz inputs still
// decode a full configuration.
func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// FuzzIBPContainment drives the soundness property from fuzzer-chosen
// network shapes, activations, normalizers, and input boxes: every sampled
// point evaluation must land inside the certified interval, with no
// tolerance, and the degenerate midpoint box must contain Predict1 and be
// at most 2·excessBound wide.  The committed
// seed corpus (testdata/fuzz/FuzzIBPContainment) covers every activation
// and both normalizer arms; make check replays it, make fuzz-smoke
// explores beyond it.
func FuzzIBPContainment(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x00, 0x00, 0x10, 0x20}, int64(1))
	f.Add([]byte{0x01, 0x05, 0x01, 0x01, 0x7f, 0x01}, int64(42))
	f.Add([]byte{0x02, 0x0b, 0x02, 0x00, 0x40, 0xc0}, int64(7))
	f.Add([]byte{0x03, 0x07, 0x03, 0x01, 0x00, 0xff}, int64(13))
	f.Add([]byte{0x04, 0x01, 0x04, 0x00, 0x90, 0x33, 0x55, 0xaa}, int64(99))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(byteAt(data, 0))%5
		hidden := 1 + int(byteAt(data, 1))%12
		acts := []nn.Activation{nn.ReLU{}, nn.LeakyReLU{}, nn.Tanh{}, nn.Sigmoid{}, nn.Identity{}}
		act := acts[int(byteAt(data, 2))%len(acts)]
		sizes := []int{in, hidden, 1}
		if byteAt(data, 3)%2 == 1 {
			sizes = []int{in, hidden, 1 + int(byteAt(data, 3))%6, 1}
		}
		net := nn.NewMLP(rng, act, sizes...)
		var norm *nn.Normalizer
		if byteAt(data, 4)%2 == 1 {
			norm = &nn.Normalizer{Mean: make([]float64, in), Std: make([]float64, in)}
			for j := 0; j < in; j++ {
				norm.Mean[j] = rng.Float64()*4 - 2
				norm.Std[j] = 0.1 + rng.Float64()*3
			}
		}
		p, err := New(net, norm)
		if err != nil {
			t.Fatalf("New rejected a monotone network: %v", err)
		}
		box := make([]interval.Interval, in)
		for k := range box {
			c := float64(int8(byteAt(data, 5+2*k))) / 8
			w := float64(byteAt(data, 6+2*k)) / 32
			box[k] = interval.New(c-w, c+w)
		}
		scr := p.NewScratch()
		out := predict1(p, box, scr)
		if out.IsEmpty() || math.IsNaN(out.Lo) || math.IsNaN(out.Hi) {
			t.Fatalf("bad certified interval %v for box %v", out, box)
		}
		x := make([]float64, in)
		for s := 0; s < 32; s++ {
			for k := range x {
				x[k] = box[k].Lo + rng.Float64()*(box[k].Hi-box[k].Lo)
			}
			checkContains(t, "interval box", []interval.Interval{out}, predictIn(net, norm, x))
		}
		point := make([]interval.Interval, in)
		for k := range point {
			x[k] = box[k].Mid()
			point[k] = interval.Point(x[k])
		}
		pout := predict1(p, point, scr)
		checkContains(t, "point box", []interval.Interval{pout}, predictIn(net, norm, x))
		if w, bound := pout.Width(), 2*excessBound(net, p, point); w > bound {
			t.Fatalf("point box %v is %g wide, bound %g", pout, w, bound)
		}
	})
}
