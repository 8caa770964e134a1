package nn

import (
	"fmt"
	"math"
	"math/rand"

	"safeplan/internal/mat"
)

// Dataset is a supervised regression dataset: row i of X maps to row i of Y.
type Dataset struct {
	X, Y *mat.Dense
}

// NewDataset wraps feature and target matrices, validating row agreement.
func NewDataset(x, y *mat.Dense) (*Dataset, error) {
	if x.Rows() != y.Rows() {
		return nil, fmt.Errorf("nn: dataset rows mismatch %d vs %d", x.Rows(), y.Rows())
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows() }

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		swapRows(d.X, i, j)
		swapRows(d.Y, i, j)
	}
}

func swapRows(m *mat.Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Batch copies samples [from, to) into the provided scratch matrices
// (allocating if nil or mis-sized) and returns them.
func (d *Dataset) Batch(from, to int, bx, by *mat.Dense) (*mat.Dense, *mat.Dense) {
	n := to - from
	if bx == nil || bx.Rows() != n {
		bx = mat.NewDense(n, d.X.Cols())
		by = mat.NewDense(n, d.Y.Cols())
	}
	for i := from; i < to; i++ {
		copy(bx.Row(i-from), d.X.Row(i))
		copy(by.Row(i-from), d.Y.Row(i))
	}
	return bx, by
}

// Normalizer standardizes features to zero mean and unit variance; it is
// fitted on training data and baked into serialized planner models so the
// same transform applies at inference time.
type Normalizer struct {
	Mean, Std []float64
}

// FitNormalizer computes per-column mean and standard deviation of x.
// Columns with (near-)zero variance get Std 1 so they pass through.
func FitNormalizer(x *mat.Dense) *Normalizer {
	cols := x.Cols()
	n := float64(x.Rows())
	nm := &Normalizer{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for i := 0; i < x.Rows(); i++ {
		r := x.Row(i)
		for j, v := range r {
			nm.Mean[j] += v
		}
	}
	for j := range nm.Mean {
		nm.Mean[j] /= n
	}
	for i := 0; i < x.Rows(); i++ {
		r := x.Row(i)
		for j, v := range r {
			d := v - nm.Mean[j]
			nm.Std[j] += d * d
		}
	}
	for j := range nm.Std {
		nm.Std[j] = math.Sqrt(nm.Std[j] / n)
		if nm.Std[j] < 1e-9 {
			nm.Std[j] = 1
		}
	}
	return nm
}

// Apply standardizes a single sample in place.
func (nm *Normalizer) Apply(sample []float64) {
	for j := range sample {
		sample[j] = (sample[j] - nm.Mean[j]) / nm.Std[j]
	}
}

// ApplyMatrix standardizes every row of x in place.
func (nm *Normalizer) ApplyMatrix(x *mat.Dense) {
	for i := 0; i < x.Rows(); i++ {
		nm.Apply(x.Row(i))
	}
}

// TrainConfig drives Fit.
type TrainConfig struct {
	Epochs    int                           // passes over the data (required, > 0)
	BatchSize int                           // minibatch size; 0 selects 32
	Seed      int64                         // shuffle seed
	Verbose   func(epoch int, loss float64) // optional progress callback
}

// Fit trains the network on ds with opt under MSE loss and returns the
// final epoch's mean training loss.
func (n *Network) Fit(ds *Dataset, opt Optimizer, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 {
		panic("nn: TrainConfig.Epochs must be positive")
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var bx, by *mat.Dense
	var last float64
	for e := 0; e < cfg.Epochs; e++ {
		ds.Shuffle(rng)
		var sum float64
		batches := 0
		for from := 0; from < ds.Len(); from += bs {
			to := from + bs
			if to > ds.Len() {
				to = ds.Len()
			}
			bx, by = ds.Batch(from, to, bx, by)
			sum += n.TrainBatch(bx, by, opt)
			batches++
		}
		last = sum / float64(batches)
		if cfg.Verbose != nil {
			cfg.Verbose(e, last)
		}
	}
	return last
}
