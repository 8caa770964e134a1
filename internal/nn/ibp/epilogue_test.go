package ibp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"safeplan/internal/nn"
)

// tanhLayer is a hidden tanh layer with the given per-row constants; the
// epilogue reads nothing else.
func tanhLayer(b, rowsum, gb []float64) *layer {
	return &layer{out: len(b), b: b, rowsum: rowsum, gb: gb, act: nn.Tanh{}, kind: actTanh}
}

// hostTiers returns the epilogue tiers from tierGo up to epilogueTier,
// the ones this build and CPU run, and logs them, so a test's output
// shows which kernels it checked.
func hostTiers(t testing.TB) []tier {
	t.Helper()
	var ts []tier
	for tr := tierGo; tr <= epilogueTier; tr++ {
		ts = append(ts, tr)
	}
	t.Logf("epilogue tiers run: %v", ts)
	return ts
}

// checkEpilogue runs layer.epilogue on tier tr (its kernels on their
// blocks, the lower tiers on the rest) and layer.epilogueGo alone on
// copies of the sums c and r, for a point and an interval box, and
// requires the centres, radii and returned rmax to agree bit for bit.
func checkEpilogue(t testing.TB, tr tier, l *layer, c, r []float64, s float64) {
	t.Helper()
	n := len(c)
	for _, point := range []bool{false, true} {
		gc, gr := append([]float64(nil), c...), append([]float64(nil), r...)
		wc, wr := append([]float64(nil), c...), append([]float64(nil), r...)
		got := l.epilogue(tr, gc, gr, s, point)
		want := l.epilogueGo(wc, wr, s, point, 0, 0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v n=%d point=%v: rmax %v (%#x), Go twin %v (%#x)",
				tr, n, point, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(gc[j]) != math.Float64bits(wc[j]) || math.Float64bits(gr[j]) != math.Float64bits(wr[j]) {
				t.Fatalf("%v n=%d point=%v row %d (c %v, r %v, s %v): got (%v, %v) [%#x %#x], Go twin (%v, %v) [%#x %#x]",
					tr, n, point, j, c[j], r[j], s, gc[j], gr[j], math.Float64bits(gc[j]), math.Float64bits(gr[j]),
					wc[j], wr[j], math.Float64bits(wc[j]), math.Float64bits(wr[j]))
			}
		}
	}
}

// epilogueEdges are pre-activations where the chord enclosure branches or
// rounds: ±0, subnormals, every cell edge i/128 on [0, 20] with its ±1-ulp
// neighbours, exactly 20 and beyond, and the largest magnitudes maxReach
// admits; each with both signs.
func epilogueEdges() []float64 {
	xs := []float64{0, 5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
		25, 1e3, 1e300, maxReach, 2 * maxReach}
	for i := 0; i <= tanhCells; i++ {
		e := float64(i) / tanhCellsPerUnit
		xs = append(xs, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	n := len(xs)
	for _, x := range xs[:n] {
		xs = append(xs, -x)
	}
	return xs
}

// TestTanhEpilogueMatchesGo pins the tanh epilogue on every tier the host
// runs to its Go twin bit for bit.  With zero bias, radius, rowsum and
// margin the pre-activation bounds are the centre sums themselves, so
// epilogueEdges reach the chord exactly; random rows then add bias,
// radius and margin, at every length 0–19 (the AVX-512 blocks with AVX2
// and scalar tails) and at 32.
func TestTanhEpilogueMatchesGo(t *testing.T) {
	tiers := hostTiers(t)
	xs := epilogueEdges()
	zeros := make([]float64, len(xs))
	for _, tr := range tiers {
		checkEpilogue(t, tr, tanhLayer(zeros, zeros, zeros), xs, zeros, 0)
	}

	rng := rand.New(rand.NewSource(23))
	for rep := 0; rep < 600; rep++ {
		n := rep % 20
		if rep%3 == 0 {
			n = 32
		}
		c, r := make([]float64, n), make([]float64, n)
		b, rowsum, gb := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := range c {
			c[j] = (rng.Float64()*2 - 1) * 25
			if rep%2 == 0 {
				c[j] = xs[rng.Intn(len(xs))]
			}
			r[j] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(6)-5))
			b[j] = rng.NormFloat64()
			rowsum[j] = rng.ExpFloat64() * 4
			gb[j] = max(math.Abs(b[j])*gamma(4*32+16), marginFloor)
		}
		s := rng.ExpFloat64() * 1e-3
		for _, tr := range tiers {
			checkEpilogue(t, tr, tanhLayer(b, rowsum, gb), c, r, s)
		}
	}
}

// FuzzTanhEpilogue compares the tanh epilogue on every tier the host runs
// with its Go twin bit for bit on the first k rows for every k up to
// rows mod 36.  Row j reads
// c, r, b, rowsum and gb from the decoded values 5j…5j+4 (cycling), and
// s from value 5·n.  Non-finite values become 0 and magnitudes are
// clamped so the pre-activation bounds stay finite, the kernel's
// precondition: c and b to maxReach/4, r, rowsum and gb to |v| ≤
// maxReach/4, s to |v| ≤ 1.  The committed corpus
// (testdata/fuzz/FuzzTanhEpilogue) holds cell edges, ±0, subnormals,
// values at and above 20 and near maxReach, at 0–35 rows.
func FuzzTanhEpilogue(f *testing.F) {
	tiers := hostTiers(f)
	f.Fuzz(func(t *testing.T, data []byte, rows uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Copysign(min(math.Abs(v), maxReach/4), v)
		}
		at := func(i int) float64 {
			if len(vals) == 0 {
				return 0
			}
			return vals[i%len(vals)]
		}
		n := int(rows) % 36
		c, r := make([]float64, n), make([]float64, n)
		b, rowsum, gb := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := range c {
			c[j], r[j], b[j] = at(5*j), math.Abs(at(5*j+1)), at(5*j+2)
			rowsum[j], gb[j] = math.Abs(at(5*j+3)), math.Abs(at(5*j+4))
		}
		s := min(math.Abs(at(5*n)), 1)
		for k := 0; k <= n; k++ {
			for _, tr := range tiers {
				checkEpilogue(t, tr, tanhLayer(b[:k], rowsum[:k], gb[:k]), c[:k], r[:k], s)
			}
		}
	})
}

// BenchmarkTanhEpilogue times one 32-row tanh layer's epilogue on an
// interval box, on every tier the host runs (go is the Go twin alone).
func BenchmarkTanhEpilogue(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	const n = 32
	c, r := make([]float64, n), make([]float64, n)
	bias, rowsum, gb := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range c {
		c[j], r[j] = rng.NormFloat64()*2, rng.ExpFloat64()*0.1
		bias[j], rowsum[j], gb[j] = rng.NormFloat64(), rng.ExpFloat64()*4, marginFloor
	}
	l := tanhLayer(bias, rowsum, gb)
	wc, wr := make([]float64, n), make([]float64, n)
	for _, tr := range hostTiers(b) {
		b.Run(tr.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(wc, c)
				copy(wr, r)
				l.epilogue(tr, wc, wr, 1e-12, false)
			}
		})
	}
}
