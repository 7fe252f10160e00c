package dnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"burstsnn/internal/mathx"
)

// modelFile is the on-disk representation: the architecture spec, a flat
// weight blob per parameter in network order, and non-parameter state
// (batch-norm running statistics) in layer order.
type modelFile struct {
	Spec    Spec
	Weights [][]float64
	// RunStats holds, for each BatchNorm layer in order, its running
	// mean followed by its running variance.
	RunStats [][]float64
}

// SaveModel serializes the network (spec + weights + running statistics)
// to w with gob.
func SaveModel(w io.Writer, spec Spec, net *Network) error {
	mf := modelFile{Spec: spec}
	for _, p := range net.Params() {
		buf := make([]float64, p.W.Len())
		copy(buf, p.W.Data)
		mf.Weights = append(mf.Weights, buf)
	}
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			stats := make([]float64, 0, 2*bn.C)
			stats = append(stats, bn.RunMean...)
			stats = append(stats, bn.RunVar...)
			mf.RunStats = append(mf.RunStats, stats)
		}
	}
	return gob.NewEncoder(w).Encode(mf)
}

// LoadModel reconstructs a network saved with SaveModel. A weight or
// running statistic that is NaN or infinite is an error naming its blob:
// such a network has no meaningful output, and downstream it would only
// surface as a NaN margin no JSON encoder can write.
func LoadModel(r io.Reader) (Spec, *Network, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return Spec{}, nil, fmt.Errorf("dnn: decoding model: %w", err)
	}
	// Weights are overwritten below, so the init RNG seed is irrelevant.
	net, err := Build(mf.Spec, mathx.NewRNG(0))
	if err != nil {
		return Spec{}, nil, err
	}
	params := net.Params()
	if len(params) != len(mf.Weights) {
		return Spec{}, nil, fmt.Errorf("dnn: model has %d weight blobs, spec needs %d", len(mf.Weights), len(params))
	}
	for i, p := range params {
		if p.W.Len() != len(mf.Weights[i]) {
			return Spec{}, nil, fmt.Errorf("dnn: weight blob %d has %d values, want %d", i, len(mf.Weights[i]), p.W.Len())
		}
		if err := checkFinite(mf.Weights[i], "weight blob %d (%s)", i, p.Name); err != nil {
			return Spec{}, nil, err
		}
		copy(p.W.Data, mf.Weights[i])
	}
	si := 0
	for _, l := range net.Layers {
		bn, ok := l.(*BatchNorm)
		if !ok {
			continue
		}
		if si >= len(mf.RunStats) || len(mf.RunStats[si]) != 2*bn.C {
			return Spec{}, nil, fmt.Errorf("dnn: missing or malformed running stats for batchnorm layer %d", si)
		}
		if err := checkFinite(mf.RunStats[si], "running stats of batchnorm layer %d", si); err != nil {
			return Spec{}, nil, err
		}
		copy(bn.RunMean, mf.RunStats[si][:bn.C])
		copy(bn.RunVar, mf.RunStats[si][bn.C:])
		si++
	}
	return mf.Spec, net, nil
}

// checkFinite reports the first NaN or infinite value of a blob, named
// by format and args.
func checkFinite(vals []float64, format string, args ...any) error {
	for j, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dnn: %s: value %d is %v", fmt.Sprintf(format, args...), j, v)
		}
	}
	return nil
}

// SaveModelFile writes the model to path, creating parent-relative files
// atomically via a temp file then rename.
func SaveModelFile(path string, spec Spec, net *Network) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveModel(f, spec, net); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadModelFile reads a model written by SaveModelFile.
func LoadModelFile(path string) (Spec, *Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
