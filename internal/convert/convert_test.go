package convert

import (
	"math"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
	"burstsnn/internal/tensor"
)

// trainTinyNet builds and trains a small MLP on a separable 2-feature
// task; used as a realistic conversion source.
func trainTinyNet(t *testing.T) (*dnn.Network, *dataset.Set) {
	t.Helper()
	r := mathx.NewRNG(31)
	set := &dataset.Set{Name: "sep", C: 1, H: 1, W: 4, Classes: 2}
	mk := func(n int) []dataset.Sample {
		out := make([]dataset.Sample, n)
		for i := range out {
			label := i % 2
			img := make([]float64, 4)
			for j := range img {
				img[j] = mathx.Clamp(r.Norm(0.3, 0.1), 0, 1)
			}
			if label == 1 {
				img[0] = mathx.Clamp(r.Norm(0.8, 0.1), 0, 1)
			}
			out[i] = dataset.Sample{Image: img, Label: label}
		}
		return out
	}
	set.Train, set.Test = mk(300), mk(80)
	net, err := dnn.Build(dnn.MLP(1, 1, 4, []int{8}, 2), mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	dnn.Train(net, set, dnn.NewAdam(0.01), dnn.TrainConfig{Epochs: 20, BatchSize: 16, Seed: 3})
	if acc := dnn.Evaluate(net, set.Test); acc < 0.95 {
		t.Fatalf("tiny net failed to train: %.3f", acc)
	}
	return net, set
}

func TestConvertRejectsBadConfigs(t *testing.T) {
	net, set := trainTinyNet(t)
	cases := []Options{
		{Input: coding.DefaultConfig(coding.Real), Hidden: coding.DefaultConfig(coding.Real)},
		{Input: coding.DefaultConfig(coding.Real), Hidden: coding.Config{Scheme: coding.Burst, VTh: 1, Beta: 0.3}},
		{Input: coding.Config{Scheme: coding.Rate, VTh: -1}, Hidden: coding.DefaultConfig(coding.Rate)},
	}
	for i, opts := range cases {
		if _, err := Convert(net, set.Train, opts); err == nil {
			t.Errorf("case %d: Convert accepted invalid options", i)
		}
	}
}

func TestConvertRequiresSamples(t *testing.T) {
	net, _ := trainTinyNet(t)
	if _, err := Convert(net, nil, DefaultOptions(coding.Real, coding.Rate)); err == nil {
		t.Fatal("Convert accepted empty sample set")
	}
}

func TestConvertStructure(t *testing.T) {
	net, set := trainTinyNet(t)
	res, err := Convert(net, set.Train, DefaultOptions(coding.Real, coding.Rate))
	if err != nil {
		t.Fatal(err)
	}
	// MLP: flatten, dense+relu, dense => one hidden spiking layer + readout.
	if len(res.Net.Layers) != 1 {
		t.Fatalf("expected 1 spiking layer, got %d", len(res.Net.Layers))
	}
	if res.Net.Output == nil {
		t.Fatal("missing readout layer")
	}
	if res.Net.NumNeurons() != 4+8+2 {
		t.Fatalf("NumNeurons = %d", res.Net.NumNeurons())
	}
}

// The core conversion guarantee: a real-rate SNN's accuracy approaches the
// DNN's accuracy as the time budget grows.
func TestConvertedSNNMatchesDNNAccuracy(t *testing.T) {
	net, set := trainTinyNet(t)
	res, err := Convert(net, set.Train, DefaultOptions(coding.Real, coding.Rate))
	if err != nil {
		t.Fatal(err)
	}
	dnnAcc := dnn.Evaluate(net, set.Test)
	correct := 0
	for _, s := range set.Test {
		r := res.Net.Run(s.Image, 120)
		if r.FinalPrediction() == s.Label {
			correct++
		}
	}
	snnAcc := float64(correct) / float64(len(set.Test))
	if snnAcc < dnnAcc-0.05 {
		t.Fatalf("SNN accuracy %.3f too far below DNN %.3f", snnAcc, dnnAcc)
	}
}

// With real input and rate hidden coding, the readout potential after T
// steps divided by T must approximate the DNN logits (up to the residual
// truncation error of one threshold per layer).
func TestReadoutTracksLogits(t *testing.T) {
	net, set := trainTinyNet(t)
	res, err := Convert(net, set.Train, DefaultOptions(coding.Real, coding.Rate))
	if err != nil {
		t.Fatal(err)
	}
	sample := set.Test[0]
	logits := net.Forward(tensor.FromSlice(sample.Image, net.InShape...))

	const T = 400
	res.Net.Reset(sample.Image)
	for step := 0; step < T; step++ {
		res.Net.Step(step)
	}
	pots := res.Net.Output.Potentials()
	for i := range pots {
		got := pots[i] / T
		if math.Abs(got-logits.Data[i]) > 0.08 {
			t.Fatalf("readout %d: %.4f vs logit %.4f", i, got, logits.Data[i])
		}
	}
}

func TestConvertConvNetwork(t *testing.T) {
	r := mathx.NewRNG(17)
	spec := dnn.Spec{
		Name:    "conv-tiny",
		InShape: []int{1, 6, 6},
		Layers: []dnn.LayerSpec{
			{Kind: dnn.KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindAvgPool, Window: 2},
			{Kind: dnn.KindFlatten},
			{Kind: dnn.KindDense, Units: 4},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindDense, Units: 2},
		},
	}
	net, err := dnn.Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	samples := []dataset.Sample{}
	for i := 0; i < 8; i++ {
		img := make([]float64, 36)
		for j := range img {
			img[j] = r.Float64()
		}
		samples = append(samples, dataset.Sample{Image: img, Label: 0})
	}
	res, err := Convert(net, samples, DefaultOptions(coding.Phase, coding.Burst))
	if err != nil {
		t.Fatal(err)
	}
	// conv, avgpool, dense => 3 spiking layers + readout.
	if len(res.Net.Layers) != 3 {
		t.Fatalf("expected 3 spiking layers, got %d", len(res.Net.Layers))
	}
	// The conversion must be runnable.
	out := res.Net.Run(samples[0].Image, 32)
	if out.Steps != 32 {
		t.Fatal("run did not complete")
	}
}

// TestDenseModeFollowsInputDensity: the encoder-fed conv gathers exactly
// when the encoder fires at least DenseInputDensity of its inputs per
// step on the calibration images and the active tier packs the gather;
// the conv behind it never does.
func TestDenseModeFollowsInputDensity(t *testing.T) {
	spec := dnn.Spec{
		Name:    "conv-density",
		InShape: []int{1, 6, 6},
		Layers: []dnn.LayerSpec{
			{Kind: dnn.KindConv, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindConv, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindFlatten},
			{Kind: dnn.KindDense, Units: 2},
		},
	}
	net, err := dnn.Build(spec, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// lit(k): every image has its first k of 36 pixels at full intensity.
	lit := func(k int) []dataset.Sample {
		img := make([]float64, 36)
		for j := range img[:k] {
			img[j] = 1
		}
		return []dataset.Sample{{Image: img}, {Image: img}}
	}
	packed := kernels.ConvGatherPacked(4)
	for _, c := range []struct {
		in      coding.Scheme
		k       int
		density float64
	}{
		{coding.Real, 36, 1},
		{coding.Real, 18, 0.5},
		{coding.Real, 9, 0.25},
		{coding.Phase, 36, 1}, // a full-intensity pixel sets every phase bit
		{coding.Phase, 9, 0.25},
		{coding.TTFS, 36, 1.0 / 8},
	} {
		samples := lit(c.k)
		opts := DefaultOptions(c.in, coding.Burst)
		opts.NormSamples = len(samples)
		if d, err := inputDensity(opts, 36, samples); err != nil || d != c.density {
			t.Errorf("%v, %d lit: density %v (%v), want %v", c.in, c.k, d, err, c.density)
		}
		r, err := Convert(net, samples, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := packed && c.density >= DenseInputDensity
		if got := r.Net.Layers[0].(*snn.SpikingConv).DenseMode(); got != want {
			t.Errorf("%v, %d lit: first conv dense mode = %v, want %v", c.in, c.k, got, want)
		}
		if r.Net.Layers[1].(*snn.SpikingConv).DenseMode() {
			t.Errorf("%v, %d lit: second conv in dense mode", c.in, c.k)
		}
	}
}

func TestConvertDropoutAndMaxPoolHandled(t *testing.T) {
	r := mathx.NewRNG(23)
	spec := dnn.Spec{
		Name:    "mp-do",
		InShape: []int{1, 4, 4},
		Layers: []dnn.LayerSpec{
			{Kind: dnn.KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindMaxPool, Window: 2},
			{Kind: dnn.KindFlatten},
			{Kind: dnn.KindDense, Units: 4},
			{Kind: dnn.KindDropout, Rate: 0.5},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindDense, Units: 2},
		},
	}
	net, err := dnn.Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	samples := []dataset.Sample{{Image: make([]float64, 16), Label: 0}}
	for i := range samples[0].Image {
		samples[0].Image[i] = r.Float64()
	}
	res, err := Convert(net, samples, DefaultOptions(coding.Real, coding.Rate))
	if err != nil {
		t.Fatal(err)
	}
	// conv, maxpool gate, dense (dropout skipped, relu folded).
	if len(res.Net.Layers) != 3 {
		t.Fatalf("expected 3 layers, got %d", len(res.Net.Layers))
	}
	res.Net.Run(samples[0].Image, 16)
}

func TestNormalizationScalesBoundActivations(t *testing.T) {
	net, set := trainTinyNet(t)
	res, err := Convert(net, set.Train, Options{
		Input:  coding.DefaultConfig(coding.Real),
		Hidden: coding.DefaultConfig(coding.Rate),
		Norm:   MaxNorm, NormSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After max normalization, the hidden spiking layer driven by any
	// training image must emit payload at a rate ≤ 1 per step.
	hidden := res.Net.Layers[0].(*snn.SpikingDense)
	_ = hidden
	for _, s := range set.Train[:20] {
		r := res.Net.Run(s.Image, 100)
		perNeuronRate := float64(r.HiddenSpikes) / 100 / 8
		if perNeuronRate > 1 {
			t.Fatalf("firing rate %v exceeds 1 per neuron per step", perNeuronRate)
		}
	}
}

func TestPercentileVsMaxNormScales(t *testing.T) {
	net, set := trainTinyNet(t)
	resMax, err := Convert(net, set.Train, Options{
		Input: coding.DefaultConfig(coding.Real), Hidden: coding.DefaultConfig(coding.Rate),
		Norm: MaxNorm, NormSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	resPct, err := Convert(net, set.Train, Options{
		Input: coding.DefaultConfig(coding.Real), Hidden: coding.DefaultConfig(coding.Rate),
		Norm: PercentileNorm, Percentile: 90, NormSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Percentile scale is never above the max scale.
	for i := range resMax.Scales {
		if resPct.Scales[i] > resMax.Scales[i]+1e-12 {
			t.Fatalf("layer %d: percentile scale %v exceeds max scale %v", i, resPct.Scales[i], resMax.Scales[i])
		}
	}
}

func TestNormMethodString(t *testing.T) {
	if MaxNorm.String() != "max" || PercentileNorm.String() != "percentile" {
		t.Fatal("NormMethod names wrong")
	}
}

// TestBatchNormFoldingEquivalence verifies BN folding: the converted SNN
// readout must track the BN network's inference logits just as it does
// for plain networks.
func TestBatchNormFoldingEquivalence(t *testing.T) {
	r := mathx.NewRNG(41)
	spec := dnn.Spec{
		Name:    "bn-conv",
		InShape: []int{1, 6, 6},
		Layers: []dnn.LayerSpec{
			{Kind: dnn.KindConv, OutC: 3, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindBatchNorm},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindAvgPool, Window: 2},
			{Kind: dnn.KindFlatten},
			{Kind: dnn.KindDense, Units: 2},
		},
	}
	net, err := dnn.Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	// Push the BN stats and affine away from identity, as training would.
	for _, l := range net.Layers {
		bn, ok := l.(*dnn.BatchNorm)
		if !ok {
			continue
		}
		for c := 0; c < bn.C; c++ {
			bn.Gamma.W.Data[c] = 0.5 + r.Float64()
			bn.Beta.W.Data[c] = r.Norm(0.2, 0.1)
			bn.RunMean[c] = r.Norm(0, 0.2)
			bn.RunVar[c] = 0.5 + r.Float64()
		}
	}
	var samples []dataset.Sample
	for i := 0; i < 10; i++ {
		img := make([]float64, 36)
		for j := range img {
			img[j] = r.Float64()
		}
		samples = append(samples, dataset.Sample{Image: img, Label: 0})
	}
	res, err := Convert(net, samples, DefaultOptions(coding.Real, coding.Rate))
	if err != nil {
		t.Fatal(err)
	}
	// BN is folded, so conv+pool+readout => 2 spiking layers + readout.
	if len(res.Net.Layers) != 2 {
		t.Fatalf("expected 2 spiking layers after folding, got %d", len(res.Net.Layers))
	}
	const T = 400
	logits := net.Forward(tensor.FromSlice(samples[0].Image, net.InShape...))
	res.Net.Reset(samples[0].Image)
	for step := 0; step < T; step++ {
		res.Net.Step(step)
	}
	pots := res.Net.Output.Potentials()
	for i := range pots {
		if math.Abs(pots[i]/T-logits.Data[i]) > 0.05 {
			t.Fatalf("readout %d: %.4f vs logit %.4f", i, pots[i]/T, logits.Data[i])
		}
	}
}

// A BatchNorm that does not follow a convolution cannot be folded and
// must be rejected.
func TestBatchNormWithoutConvRejected(t *testing.T) {
	r := mathx.NewRNG(43)
	spec := dnn.Spec{
		Name:    "bn-after-pool",
		InShape: []int{1, 4, 4},
		Layers: []dnn.LayerSpec{
			{Kind: dnn.KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindAvgPool, Window: 2},
			{Kind: dnn.KindBatchNorm},
			{Kind: dnn.KindReLU},
			{Kind: dnn.KindFlatten},
			{Kind: dnn.KindDense, Units: 2},
		},
	}
	net, err := dnn.Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	samples := []dataset.Sample{{Image: make([]float64, 16), Label: 0}}
	if _, err := Convert(net, samples, DefaultOptions(coding.Real, coding.Rate)); err == nil {
		t.Fatal("unfoldable batchnorm accepted")
	}
}

// TestRandomArchitectureEquivalenceProperty is the catch-all conversion
// correctness check: for random small conv/pool/dense architectures with
// random weights, the real-rate SNN readout divided by T must track the
// DNN logits. This exercises every layer pairing the converter supports.
func TestRandomArchitectureEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		r := mathx.NewRNG(uint64(1000 + trial))
		inC := 1 + r.Intn(2)
		spec := dnn.Spec{
			Name:    "random",
			InShape: []int{inC, 8, 8},
		}
		// 1-2 conv blocks, optional pool, then dense head.
		blocks := 1 + r.Intn(2)
		for b := 0; b < blocks; b++ {
			spec.Layers = append(spec.Layers,
				dnn.LayerSpec{Kind: dnn.KindConv, OutC: 2 + r.Intn(3), K: 3, Stride: 1, Pad: 1},
				dnn.LayerSpec{Kind: dnn.KindReLU})
			if b == 0 && r.Bernoulli(0.7) {
				spec.Layers = append(spec.Layers, dnn.LayerSpec{Kind: dnn.KindAvgPool, Window: 2})
			}
		}
		spec.Layers = append(spec.Layers,
			dnn.LayerSpec{Kind: dnn.KindFlatten},
			dnn.LayerSpec{Kind: dnn.KindDense, Units: 4 + r.Intn(5)},
			dnn.LayerSpec{Kind: dnn.KindReLU},
			dnn.LayerSpec{Kind: dnn.KindDense, Units: 3})
		net, err := dnn.Build(spec, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var samples []dataset.Sample
		for i := 0; i < 12; i++ {
			img := make([]float64, inC*64)
			for j := range img {
				img[j] = r.Float64()
			}
			samples = append(samples, dataset.Sample{Image: img, Label: 0})
		}
		res, err := Convert(net, samples, DefaultOptions(coding.Real, coding.Rate))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const T = 300
		logits := net.Forward(tensor.FromSlice(samples[0].Image, net.InShape...))
		res.Net.Reset(samples[0].Image)
		for step := 0; step < T; step++ {
			res.Net.Step(step)
		}
		pots := res.Net.Output.Potentials()
		for i := range pots {
			if math.Abs(pots[i]/T-logits.Data[i]) > 0.15 {
				t.Fatalf("trial %d (%d layers): readout %d = %.4f vs logit %.4f",
					trial, len(spec.Layers), i, pots[i]/T, logits.Data[i])
			}
		}
	}
}

// TestActivationScalesOneWorkspace pins activation recording to one
// forward workspace for all calibration images: each image past the
// first costs a tensor header and the growth of the value lists, a few
// allocations, where a workspace per image costs about sixty.
func TestActivationScalesOneWorkspace(t *testing.T) {
	net, err := dnn.Build(dnn.LeNetMini(3, 16, 16, 10), mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	set := dataset.SynthTextures(dataset.TexturesConfig{Classes: 10, Size: 16, TrainPerClass: 7, TestPerClass: 1, Noise: 0.05, Seed: 3})
	opts := DefaultOptions(coding.Phase, coding.Burst)
	allocs := func(n int) float64 {
		opts.NormSamples = n
		return testing.AllocsPerRun(2, func() {
			if _, err := activationScales(net, set.Train, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(8), allocs(64)
	if perImage := (many - few) / 56; perImage > 4 {
		t.Errorf("activation recording allocates %.1f times per extra image (%v for 8 images, %v for 64); want at most 4", perImage, few, many)
	}
}
