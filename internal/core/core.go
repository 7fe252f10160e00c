// Package core ties the substrates together into the paper's actual
// contribution: the burst-spike neuron model and the layer-wise hybrid
// neural coding scheme, exposed as a train → convert → simulate → analyze
// pipeline.
//
// A Hybrid names an "input-hidden" coding combination (the paper's
// notation, e.g. phase-burst). Evaluate runs a converted SNN over a test
// set and produces the quantities every table and figure in the paper is
// built from: the per-time-step accuracy curve, spike counts, spiking
// density, and latency-to-target-accuracy.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"burstsnn/internal/analysis"
	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/snn"
)

// Hybrid is a layer-wise coding assignment: one scheme for the input
// layer, another for all hidden layers (Section 3.2).
type Hybrid struct {
	Input  coding.Config
	Hidden coding.Config
}

// NewHybrid builds a Hybrid from scheme names with default parameters.
func NewHybrid(input, hidden coding.Scheme) Hybrid {
	return Hybrid{
		Input:  coding.DefaultConfig(input),
		Hidden: coding.DefaultConfig(hidden),
	}
}

// WithVTh returns a copy with the hidden threshold constant v_th
// replaced (the Fig. 2 / Table 2 sweep parameter).
func (h Hybrid) WithVTh(vth float64) Hybrid {
	h.Hidden.VTh = vth
	return h
}

// WithBeta returns a copy with the burst constant β replaced.
func (h Hybrid) WithBeta(beta float64) Hybrid {
	h.Hidden.Beta = beta
	return h
}

// WithLeak returns a copy with the hidden-layer membrane leak set (the
// leaky-IF extension; the paper's model is pure IF, leak 0).
func (h Hybrid) WithLeak(leak float64) Hybrid {
	h.Hidden.Leak = leak
	return h
}

// Notation returns the paper's "input-hidden" label, e.g. "phase-burst".
func (h Hybrid) Notation() string {
	return h.Input.Scheme.String() + "-" + h.Hidden.Scheme.String()
}

// EvalConfig controls one SNN evaluation run.
type EvalConfig struct {
	Hybrid Hybrid
	// Steps is the simulation budget per image (the paper's 1,500 scaled
	// down for run time).
	Steps int
	// MaxImages caps the number of test images (0 = all).
	MaxImages int
	// Norm and Percentile select weight normalization (defaults:
	// percentile 99.9).
	Norm       convert.NormMethod
	Percentile float64
	// NormSamples caps images used for activation recording.
	NormSamples int
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int
}

// EvalResult aggregates an evaluation run.
type EvalResult struct {
	Notation string
	// DNNAccuracy is the source network's accuracy on the same images.
	DNNAccuracy float64
	// AccuracyAt[t] is SNN accuracy using the readout after step t.
	AccuracyAt []float64
	// Images is the number of evaluated images.
	Images int
	// SpikesPerImage is the mean total (input+hidden) spike count.
	SpikesPerImage float64
	// InputSpikesPerImage and HiddenSpikesPerImage split the total.
	InputSpikesPerImage  float64
	HiddenSpikesPerImage float64
	// Neurons is the network's total neuron count.
	Neurons int
	// Steps echoes the simulation budget.
	Steps int
}

// FinalAccuracy returns the accuracy after the last step.
func (r *EvalResult) FinalAccuracy() float64 {
	if len(r.AccuracyAt) == 0 {
		return 0
	}
	return r.AccuracyAt[len(r.AccuracyAt)-1]
}

// BestAccuracy returns the maximum accuracy over the run and the first
// step (1-based latency) at which it was reached.
func (r *EvalResult) BestAccuracy() (float64, int) {
	best, at := 0.0, 0
	for t, a := range r.AccuracyAt {
		if a > best {
			best, at = a, t+1
		}
	}
	return best, at
}

// LatencyToTarget returns the first 1-based step whose accuracy reaches
// target, or -1 if the run never does — the Fig. 3 metric.
func (r *EvalResult) LatencyToTarget(target float64) int {
	for t, a := range r.AccuracyAt {
		if a >= target {
			return t + 1
		}
	}
	return -1
}

// SpikesToTarget returns the mean cumulative spike count at the latency
// where target accuracy is reached, estimated by linear proration of the
// total spike count, or -1 if the target is never reached. (Spike
// emission is roughly uniform after the first period, so proration is a
// good estimate without storing per-step counts for every image.)
func (r *EvalResult) SpikesToTarget(target float64) float64 {
	lat := r.LatencyToTarget(target)
	if lat < 0 {
		return -1
	}
	return r.SpikesPerImage * float64(lat) / float64(r.Steps)
}

// Density returns the spiking density at full run length.
func (r *EvalResult) Density() float64 {
	return analysis.SpikingDensity(int(r.SpikesPerImage+0.5), r.Neurons, r.Steps)
}

// Evaluate converts net under the hybrid coding and measures it over the
// test split of set.
func Evaluate(net *dnn.Network, set *dataset.Set, cfg EvalConfig) (*EvalResult, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: Steps must be positive")
	}
	images := set.Test
	if cfg.MaxImages > 0 && cfg.MaxImages < len(images) {
		images = images[:cfg.MaxImages]
	}
	if len(images) == 0 {
		return nil, fmt.Errorf("core: no test images")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(images) {
		workers = len(images)
	}

	opts := convert.Options{
		Input:       cfg.Hybrid.Input,
		Hidden:      cfg.Hybrid.Hidden,
		Norm:        cfg.Norm,
		Percentile:  cfg.Percentile,
		NormSamples: cfg.NormSamples,
	}

	// Each worker needs a private simulator because neuron state is
	// mutable: convert once (the conversion replays NormSamples images to
	// record activation scales), then stamp out weight-sharing replicas.
	res, err := convert.Convert(net, set.Train, opts)
	if err != nil {
		return nil, err
	}
	nets := make([]*snn.Network, workers)
	nets[0] = res.Net
	for i := 1; i < workers; i++ {
		if nets[i], err = res.Net.Clone(); err != nil {
			return nil, err
		}
	}

	correctAt := make([]int, cfg.Steps)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var totalSpikes, totalInput, totalHidden int64
	chunk := (len(images) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(images) {
			hi = len(images)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(net *snn.Network, samples []dataset.Sample) {
			defer wg.Done()
			localCorrect := make([]int, cfg.Steps)
			predBuf := make([]int, cfg.Steps) // reused across images
			var spikes, inSpikes, hidSpikes int64
			for _, s := range samples {
				res := net.RunInto(s.Image, cfg.Steps, predBuf)
				for t, pred := range res.PredictedAt {
					if pred == s.Label {
						localCorrect[t]++
					}
				}
				spikes += int64(res.TotalSpikes())
				inSpikes += int64(res.InputSpikes)
				hidSpikes += int64(res.HiddenSpikes)
			}
			mu.Lock()
			for t, c := range localCorrect {
				correctAt[t] += c
			}
			totalSpikes += spikes
			totalInput += inSpikes
			totalHidden += hidSpikes
			mu.Unlock()
		}(nets[w], images[lo:hi])
	}
	wg.Wait()

	n := float64(len(images))
	result := &EvalResult{
		Notation:             cfg.Hybrid.Notation(),
		DNNAccuracy:          dnn.Evaluate(net, images),
		AccuracyAt:           make([]float64, cfg.Steps),
		Images:               len(images),
		SpikesPerImage:       float64(totalSpikes) / n,
		InputSpikesPerImage:  float64(totalInput) / n,
		HiddenSpikesPerImage: float64(totalHidden) / n,
		Neurons:              nets[0].NumNeurons(),
		Steps:                cfg.Steps,
	}
	for t, c := range correctAt {
		result.AccuracyAt[t] = float64(c) / n
	}
	return result, nil
}
