package nn

import (
	"math"
	"math/rand"

	"safeplan/internal/mat"
)

// LRSetter is implemented by optimizers whose learning rate can be changed
// between epochs (used by learning-rate decay).
type LRSetter interface {
	// SetLR replaces the learning rate.
	SetLR(lr float64)
	// LR returns the current learning rate.
	CurrentLR() float64
}

// SetLR implements LRSetter.
func (s *SGD) SetLR(lr float64) { s.LR = lr }

// CurrentLR implements LRSetter.
func (s *SGD) CurrentLR() float64 { return s.LR }

// SetLR implements LRSetter.
func (a *Adam) SetLR(lr float64) { a.LR = lr }

// CurrentLR implements LRSetter.
func (a *Adam) CurrentLR() float64 { return a.LR }

// ClipGradients rescales every gradient of n so the global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm.  A non-positive maxNorm is
// a no-op.
func (n *Network) ClipGradients(maxNorm float64) float64 {
	var sq float64
	for _, p := range n.params() {
		for _, g := range p.g {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range n.params() {
		for i := range p.g {
			p.g[i] *= scale
		}
	}
	return norm
}

// AdvancedTrainConfig drives FitAdvanced.
type AdvancedTrainConfig struct {
	Epochs    int   // maximum epochs (required, > 0)
	BatchSize int   // minibatch size; 0 selects 32
	Seed      int64 // shuffle seed

	ClipNorm float64 // global gradient-norm clip; 0 disables
	LRDecay  float64 // per-epoch multiplicative learning-rate decay in (0, 1]; 0 disables

	// ValFrac holds out this fraction of the data for validation; with
	// Patience > 0 training stops after that many epochs without a new
	// best validation loss and the best-epoch weights are restored.
	ValFrac  float64
	Patience int

	Verbose func(epoch int, trainLoss, valLoss float64) // optional
}

// FitResult reports an advanced training run.
type FitResult struct {
	Epochs       int     // epochs actually run
	TrainLoss    float64 // final-epoch mean training loss
	ValLoss      float64 // best validation loss (NaN without validation)
	StoppedEarly bool
	RestoredBest bool
}

// FitAdvanced trains with gradient clipping, learning-rate decay, and
// early stopping on a held-out validation split.  It generalizes Fit; with
// all extras zeroed it behaves identically (modulo the validation split).
func (n *Network) FitAdvanced(ds *Dataset, opt Optimizer, cfg AdvancedTrainConfig) FitResult {
	if cfg.Epochs <= 0 {
		panic("nn: AdvancedTrainConfig.Epochs must be positive")
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	train := ds
	var val *Dataset
	if cfg.ValFrac > 0 && cfg.ValFrac < 1 {
		ds.Shuffle(rng)
		train, val = ds.Split(1 - cfg.ValFrac)
	}

	res := FitResult{ValLoss: math.NaN()}
	bestVal := math.Inf(1)
	var bestNet *Network
	sinceBest := 0
	var bx, by *mat.Dense
	clipStep := clippingOptimizer{inner: opt, maxNorm: cfg.ClipNorm}

	for e := 0; e < cfg.Epochs; e++ {
		train.Shuffle(rng)
		var sum float64
		batches := 0
		for from := 0; from < train.Len(); from += bs {
			to := from + bs
			if to > train.Len() {
				to = train.Len()
			}
			bx, by = train.Batch(from, to, bx, by)
			sum += n.TrainBatch(bx, by, clipStep)
			batches++
		}
		res.TrainLoss = sum / float64(batches)
		res.Epochs = e + 1

		valLoss := math.NaN()
		if val != nil {
			valLoss = n.Evaluate(val)
			if valLoss < bestVal {
				bestVal = valLoss
				res.ValLoss = bestVal
				bestNet = n.Clone()
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		if cfg.Verbose != nil {
			cfg.Verbose(e, res.TrainLoss, valLoss)
		}
		if val != nil && cfg.Patience > 0 && sinceBest >= cfg.Patience {
			res.StoppedEarly = true
			break
		}
		if cfg.LRDecay > 0 && cfg.LRDecay <= 1 {
			if ls, ok := opt.(LRSetter); ok {
				ls.SetLR(ls.CurrentLR() * cfg.LRDecay)
			}
		}
	}
	if bestNet != nil && cfg.Patience > 0 {
		// Restore the best-validation weights.
		for i, l := range n.Layers {
			copy(l.W.Data(), bestNet.Layers[i].W.Data())
			copy(l.B, bestNet.Layers[i].B)
			l.syncWT()
		}
		res.RestoredBest = true
	}
	return res
}

// clippingOptimizer interposes gradient clipping before the inner
// optimizer's step.
type clippingOptimizer struct {
	inner   Optimizer
	maxNorm float64
}

// Step implements Optimizer.
func (c clippingOptimizer) Step(n *Network) {
	if c.maxNorm > 0 {
		n.ClipGradients(c.maxNorm)
	}
	c.inner.Step(n)
}
