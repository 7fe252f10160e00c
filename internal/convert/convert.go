// Package convert turns a trained dnn.Network into an event-driven
// snn.Network, implementing the data-based weight normalization of Diehl
// et al. 2015 and the outlier-robust percentile normalization of
// Rueckauer et al. 2017.
//
// Normalization rescales each weighted layer so the largest (or p-th
// percentile) post-ReLU activation maps to 1.0, the dynamic range an IF
// neuron with v_th=1 can transmit per time step:
//
//	W'_l = W_l · λ_{l-1}/λ_l     b'_l = b_l/λ_l
//
// Linear layers without weights (average pooling, flatten) carry the
// running scale through unchanged. The final readout layer is rescaled by
// the incoming λ only, so its accumulated potential recovers the DNN's
// logits (times the step count), keeping argmax decisions aligned.
package convert

import (
	"fmt"

	"burstsnn/internal/coding"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
	"burstsnn/internal/tensor"
)

// NormMethod selects the activation-scale estimator.
type NormMethod int

const (
	// MaxNorm uses the layer-wise maximum activation (Diehl et al. 2015).
	MaxNorm NormMethod = iota
	// PercentileNorm uses a high percentile of the activation
	// distribution, which is robust to outliers (Rueckauer et al. 2017).
	PercentileNorm
)

// String returns the method name.
func (m NormMethod) String() string {
	switch m {
	case MaxNorm:
		return "max"
	case PercentileNorm:
		return "percentile"
	default:
		return fmt.Sprintf("norm(%d)", int(m))
	}
}

// Options configures a conversion.
type Options struct {
	// Input selects the input-layer coding (real/rate/phase/ttfs).
	Input coding.Config
	// Hidden selects the hidden-layer coding (rate/phase/burst).
	Hidden coding.Config
	// Norm picks the normalization estimator; PercentileNorm is the
	// default used by the experiments.
	Norm NormMethod
	// Percentile is the percentile for PercentileNorm (default 99.9).
	Percentile float64
	// NormSamples is how many images are used to record activation
	// statistics (default 64, capped by available samples).
	NormSamples int
	// Seed feeds stochastic encoders (unused by the deterministic ones).
	Seed uint64
}

// DefaultOptions returns the conversion settings used by the experiment
// harness for the given input/hidden schemes.
func DefaultOptions(input, hidden coding.Scheme) Options {
	return Options{
		Input:       coding.DefaultConfig(input),
		Hidden:      coding.DefaultConfig(hidden),
		Norm:        PercentileNorm,
		Percentile:  99.9,
		NormSamples: 64,
	}
}

// Result is the converted network plus conversion metadata.
type Result struct {
	Net *snn.Network
	// Scales[i] is the activation scale λ assigned to dnn layer i
	// (1.0 for layers that only carry the scale through).
	Scales []float64
}

// Convert builds the spiking network. samples provide the activation
// statistics for weight normalization (typically the training set; a
// subset of NormSamples images is used).
func Convert(net *dnn.Network, samples []dataset.Sample, opts Options) (*Result, error) {
	if err := opts.Input.Validate(); err != nil {
		return nil, fmt.Errorf("convert: input coding: %w", err)
	}
	if err := opts.Hidden.Validate(); err != nil {
		return nil, fmt.Errorf("convert: hidden coding: %w", err)
	}
	switch opts.Hidden.Scheme {
	case coding.Rate, coding.Phase, coding.Burst:
	default:
		return nil, fmt.Errorf("convert: %v is not a hidden-layer coding", opts.Hidden.Scheme)
	}
	if opts.Percentile == 0 {
		opts.Percentile = 99.9
	}
	if opts.NormSamples == 0 {
		opts.NormSamples = 64
	}

	// Capacity matching for periodic hidden codings: a phase (or TTFS)
	// neuron can emit at most Σ Π(t)·v_th ≈ v_th per oscillation period,
	// but a real- or rate-coded input delivers the full activation every
	// step — k× more per period. Scaling the hidden threshold constant by
	// the period k equalizes the per-period throughput, which is what
	// makes the paper's real-phase hybrid viable; without it the phase
	// hidden layers saturate and accuracy decays over time. Phase input
	// already delivers one value per period, so no adjustment is needed,
	// and burst hidden coding adapts its own range (Eq. 8) by design.
	if (opts.Hidden.Scheme == coding.Phase || opts.Hidden.Scheme == coding.TTFS) &&
		(opts.Input.Scheme == coding.Real || opts.Input.Scheme == coding.Rate) {
		opts.Hidden.VTh *= float64(opts.Hidden.Period)
	}

	scales, err := activationScales(net, samples, opts)
	if err != nil {
		return nil, err
	}

	inSize := 1
	for _, d := range net.InShape {
		inSize *= d
	}
	encoder, err := coding.NewInputEncoder(opts.Input, inSize, opts.Seed)
	if err != nil {
		return nil, err
	}

	out := &snn.Network{Encoder: encoder}
	prevScale := 1.0 // input pixels are already in [0,1]
	layers := net.Layers
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *dnn.Conv2D:
			scale := scales[i]
			isOutput := !followedByReLU(layers, i)
			if isOutput {
				return nil, fmt.Errorf("convert: layer %d: convolutional readout is not supported (end the network with a dense layer)", i)
			}
			wRaw, bRaw := l.Weight.W.Data, l.Bias.W.Data
			if bn := batchNormAfter(layers, i); bn != nil {
				// Fold BN's inference affine into the convolution
				// (Rueckauer et al. 2017): w' = w·γ/σ, b' = b·γ/σ + shift.
				wRaw, bRaw = foldBN(wRaw, bRaw, l.Spec.OutC, bn)
			}
			w, b := normalizeWeights(wRaw, bRaw, prevScale, scale)
			geom := snn.ConvGeom{
				InC: l.Spec.InC, InH: l.Spec.InH, InW: l.Spec.InW,
				OutC: l.Spec.OutC, K: l.Spec.KH, Stride: l.Spec.Stride, Pad: l.Spec.Pad,
			}
			conv := snn.NewSpikingConv(w, b, geom, opts.Hidden)
			if len(out.Layers) == 0 && kernels.ConvGatherPacked(geom.OutC) {
				// The encoder feeds this conv: it gathers (UseDenseMode;
				// a layer that does not qualify stays base-major) when
				// the encoder fires enough of its inputs per step on the
				// calibration images.
				d, err := inputDensity(opts, inSize, samples)
				if err != nil {
					return nil, err
				}
				if d >= DenseInputDensity {
					conv.UseDenseMode()
				}
			}
			out.Layers = append(out.Layers, conv)
			prevScale = scale
		case *dnn.Dense:
			if followedByReLU(layers, i) {
				scale := scales[i]
				w, b := normalizeWeights(l.Weight.W.Data, l.Bias.W.Data, prevScale, scale)
				out.Layers = append(out.Layers, snn.NewSpikingDense(w, b, l.In, l.Out, opts.Hidden))
				prevScale = scale
			} else {
				// Readout: undo the incoming normalization so the
				// accumulated potential tracks the DNN logits.
				w := make([]float64, len(l.Weight.W.Data))
				for j, v := range l.Weight.W.Data {
					w[j] = v * prevScale
				}
				b := append([]float64(nil), l.Bias.W.Data...)
				if out.Output != nil {
					return nil, fmt.Errorf("convert: layer %d: multiple readout layers", i)
				}
				out.Output = snn.NewOutputLayer(w, b, l.In, l.Out)
			}
		case *dnn.AvgPool2D:
			out.Layers = append(out.Layers, snn.NewSpikingAvgPool(l.C, l.H, l.W, l.Window, opts.Hidden))
		case *dnn.MaxPool2D:
			out.Layers = append(out.Layers, snn.NewSpikingMaxPool(l.C, l.H, l.W, l.Window))
		case *dnn.ReLU, *dnn.Flatten, *dnn.Dropout:
			// ReLU is realized by the IF dynamics; flatten is an index
			// identity in event space; dropout is inference-inert.
		case *dnn.BatchNorm:
			// Folded into the preceding convolution above; a BatchNorm
			// without a preceding weighted layer is unconvertible.
			if i == 0 {
				return nil, fmt.Errorf("convert: layer %d: batchnorm without a preceding convolution", i)
			}
			if _, ok := layers[i-1].(*dnn.Conv2D); !ok {
				if _, ok := layers[i-1].(*dnn.Dropout); !ok {
					return nil, fmt.Errorf("convert: layer %d: batchnorm must directly follow a convolution", i)
				}
			}
		default:
			return nil, fmt.Errorf("convert: layer %d: unsupported layer %q", i, layers[i].Name())
		}
	}
	if out.Output == nil {
		return nil, fmt.Errorf("convert: network has no readout layer (final dense without ReLU)")
	}
	return &Result{Net: out, Scales: scales}, nil
}

// DenseInputDensity is the input density — the share of its inputs an
// encoder fires per step — from which the conv that encoder feeds runs in
// dense mode. A gather multiplies every tap whatever the input, so its
// cost is flat; the scatter's grows with the events. Pinned on one core
// of a 2-vCPU avx512 host (BenchmarkHotpathEncoderConvStep, µs per step
// including the fire pass), the two cross at about 0.3 of the inputs on
// the 3×16×16 textures LeNetMini at avx512 and on the 1×28×28 digits one
// at avx2, and at about 0.2 on digits at avx512: there digits phase
// input (0.19) gathers 5 % faster, at avx2 10 % slower; textures rate
// input (0.47) gathers a fifth faster at both, TTFS input (0.07–0.12)
// 6–50 % slower. At tiers without a packed gather
// (kernels.ConvGatherPacked) the scatter wins at every density.
const DenseInputDensity = 0.3

// inputDensity is the mean share of the encoder's inputs it fires per
// step over the calibration images (the first NormSamples), each
// presented for one coding period (at least 8 steps).
func inputDensity(opts Options, size int, samples []dataset.Sample) (float64, error) {
	enc, err := coding.NewInputEncoder(opts.Input, size, opts.Seed)
	if err != nil {
		return 0, err
	}
	n := min(opts.NormSamples, len(samples))
	steps := max(opts.Input.Period, 8)
	events := 0
	for _, s := range samples[:n] {
		enc.Reset(s.Image)
		for t := 0; t < steps; t++ {
			events += len(enc.Step(t))
		}
	}
	return float64(events) / float64(n*steps*size), nil
}

// followedByReLU reports whether a ReLU consumes layer i's output,
// looking through inference-inert layers (dropout, foldable batchnorm).
func followedByReLU(layers []dnn.Layer, i int) bool {
	for j := i + 1; j < len(layers); j++ {
		switch layers[j].(type) {
		case *dnn.ReLU:
			return true
		case *dnn.Dropout, *dnn.BatchNorm:
			continue
		default:
			return false
		}
	}
	return false
}

// batchNormAfter returns the BatchNorm directly consuming layer i's
// output (through dropout), or nil.
func batchNormAfter(layers []dnn.Layer, i int) *dnn.BatchNorm {
	for j := i + 1; j < len(layers); j++ {
		switch l := layers[j].(type) {
		case *dnn.BatchNorm:
			return l
		case *dnn.Dropout:
			continue
		default:
			return nil
		}
	}
	return nil
}

// foldBN merges a BatchNorm's inference affine into convolution weights
// (row-major OutC × fanIn) and biases.
func foldBN(w, b []float64, outC int, bn *dnn.BatchNorm) ([]float64, []float64) {
	scale, shift := bn.FoldedAffine()
	fanIn := len(w) / outC
	wf := make([]float64, len(w))
	bf := make([]float64, len(b))
	for oc := 0; oc < outC; oc++ {
		for k := 0; k < fanIn; k++ {
			wf[oc*fanIn+k] = w[oc*fanIn+k] * scale[oc]
		}
		bf[oc] = b[oc]*scale[oc] + shift[oc]
	}
	return wf, bf
}

// normalizeWeights applies W' = W·(prev/cur), b' = b/cur.
func normalizeWeights(w, b []float64, prev, cur float64) ([]float64, []float64) {
	wn := make([]float64, len(w))
	f := prev / cur
	for i, v := range w {
		wn[i] = v * f
	}
	bn := make([]float64, len(b))
	for i, v := range b {
		bn[i] = v / cur
	}
	return wn, bn
}

// activationScales records post-ReLU activation statistics per layer and
// returns the scale λ for every layer index (1.0 where not applicable).
// The scale of a weighted layer is stored at the *weighted* layer's index
// and estimated from the ReLU output that consumes it.
func activationScales(net *dnn.Network, samples []dataset.Sample, opts Options) ([]float64, error) {
	scales := make([]float64, len(net.Layers))
	for i := range scales {
		scales[i] = 1
	}
	n := opts.NormSamples
	if n > len(samples) {
		n = len(samples)
	}
	if n == 0 {
		return nil, fmt.Errorf("convert: no samples provided for activation recording")
	}
	// Gather activation values of the ReLU following each weighted layer.
	values := map[int][]float64{}
	for s := 0; s < n; s++ {
		x := tensor.FromSlice(samples[s].Image, net.InShape...)
		outs := net.ForwardCollect(x)
		for i := range net.Layers {
			switch net.Layers[i].(type) {
			case *dnn.Conv2D, *dnn.Dense:
				if ri := reluIndexAfter(net.Layers, i); ri >= 0 {
					values[i] = append(values[i], outs[ri].Data...)
				}
			}
		}
	}
	for i, vals := range values {
		var scale float64
		switch opts.Norm {
		case MaxNorm:
			scale = mathx.Max(vals)
		case PercentileNorm:
			scale = mathx.Percentile(vals, opts.Percentile)
		default:
			return nil, fmt.Errorf("convert: unknown normalization method %v", opts.Norm)
		}
		if scale <= 0 {
			scale = 1 // dead layer: avoid dividing by zero
		}
		scales[i] = scale
	}
	return scales, nil
}

// reluIndexAfter finds the ReLU layer that consumes layer i's output,
// looking through dropout and batchnorm, or -1.
func reluIndexAfter(layers []dnn.Layer, i int) int {
	for j := i + 1; j < len(layers); j++ {
		switch layers[j].(type) {
		case *dnn.ReLU:
			return j
		case *dnn.Dropout, *dnn.BatchNorm:
			continue
		default:
			return -1
		}
	}
	return -1
}
