package nn

import (
	"encoding/json"
	"fmt"

	"safeplan/internal/mat"
)

// modelJSON is the on-disk representation of a Network (plus an optional
// input normalizer), versioned for forward compatibility.
type modelJSON struct {
	Version int         `json:"version"`
	Layers  []layerJSON `json:"layers"`
	Norm    *normJSON   `json:"normalizer,omitempty"`
}

type layerJSON struct {
	In         int         `json:"in"`
	Out        int         `json:"out"`
	Activation string      `json:"activation"`
	W          [][]float64 `json:"w"`
	B          []float64   `json:"b"`
}

type normJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

const modelVersion = 1

// MarshalModel serializes a network and an optional input normalizer to
// JSON.  norm may be nil.
func MarshalModel(n *Network, norm *Normalizer) ([]byte, error) {
	mj := modelJSON{Version: modelVersion}
	for _, l := range n.Layers {
		lj := layerJSON{
			In:         l.In,
			Out:        l.Out,
			Activation: l.Act.Name(),
			B:          append([]float64(nil), l.B...),
		}
		for i := 0; i < l.Out; i++ {
			lj.W = append(lj.W, append([]float64(nil), l.W.Row(i)...))
		}
		mj.Layers = append(mj.Layers, lj)
	}
	if norm != nil {
		mj.Norm = &normJSON{
			Mean: append([]float64(nil), norm.Mean...),
			Std:  append([]float64(nil), norm.Std...),
		}
	}
	return json.MarshalIndent(mj, "", " ")
}

// UnmarshalModel reconstructs a network (and normalizer, possibly nil) from
// the JSON produced by MarshalModel.  Malformed input (a layer with no
// inputs or outputs, mismatched shapes, a normalizer scale that is not
// positive) is an error, never a panic.
func UnmarshalModel(data []byte) (*Network, *Normalizer, error) {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, nil, fmt.Errorf("nn: decode model: %w", err)
	}
	if mj.Version != modelVersion {
		return nil, nil, fmt.Errorf("nn: unsupported model version %d", mj.Version)
	}
	if len(mj.Layers) == 0 {
		return nil, nil, fmt.Errorf("nn: model has no layers")
	}
	n := &Network{}
	for i, lj := range mj.Layers {
		act, ok := ActivationByName(lj.Activation)
		if !ok {
			return nil, nil, fmt.Errorf("nn: layer %d: unknown activation %q", i, lj.Activation)
		}
		if lj.In <= 0 || lj.Out <= 0 {
			return nil, nil, fmt.Errorf("nn: layer %d: invalid shape %d→%d", i, lj.In, lj.Out)
		}
		if len(lj.W) != lj.Out || len(lj.B) != lj.Out {
			return nil, nil, fmt.Errorf("nn: layer %d: shape mismatch", i)
		}
		l := &Dense{
			In:  lj.In,
			Out: lj.Out,
			W:   mat.NewDense(lj.Out, lj.In),
			B:   append([]float64(nil), lj.B...),
			Act: act,
		}
		for r, row := range lj.W {
			if len(row) != lj.In {
				return nil, nil, fmt.Errorf("nn: layer %d: row %d width %d != %d", i, r, len(row), lj.In)
			}
			copy(l.W.Row(r), row)
		}
		l.syncWT()
		if i > 0 && n.Layers[i-1].Out != l.In {
			return nil, nil, fmt.Errorf("nn: layer %d input %d does not match previous output %d",
				i, l.In, n.Layers[i-1].Out)
		}
		n.Layers = append(n.Layers, l)
	}
	var norm *Normalizer
	if mj.Norm != nil {
		if len(mj.Norm.Mean) != len(mj.Norm.Std) || len(mj.Norm.Mean) != n.InputDim() {
			return nil, nil, fmt.Errorf("nn: normalizer width mismatch")
		}
		// JSON carries no NaN or infinity (the decoder rejects 1e999), so
		// a scale that is not positive is the one bad value left.
		for j, sd := range mj.Norm.Std {
			if !(sd > 0) {
				return nil, nil, fmt.Errorf("nn: normalizer feature %d has scale %v, want > 0", j, sd)
			}
		}
		norm = &Normalizer{Mean: mj.Norm.Mean, Std: mj.Norm.Std}
	}
	return n, norm, nil
}
