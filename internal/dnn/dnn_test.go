package dnn

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"burstsnn/internal/dataset"
	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		logits := make([]float64, 1+r.Intn(20))
		for i := range logits {
			logits[i] = r.Range(-50, 50)
		}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := Softmax([]float64{1, 2, 3})
	b := Softmax([]float64{1001, 1002, 1003})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("softmax must be shift invariant")
		}
	}
}

func TestCrossEntropyGradSumZero(t *testing.T) {
	logits := tensor.FromSlice([]float64{0.5, -1, 2}, 3)
	loss, grad := CrossEntropyLoss(logits, 2)
	if loss < 0 {
		t.Fatalf("CE loss must be non-negative, got %v", loss)
	}
	sum := 0.0
	for _, g := range grad.Data {
		sum += g
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("CE gradient must sum to zero, got %v", sum)
	}
}

func TestBuildShapes(t *testing.T) {
	spec := VGGMini(3, 16, 16, 10)
	net, err := Build(spec, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	out := net.OutShape()
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("VGGMini output shape %v", out)
	}
	x := tensor.New(3, 16, 16)
	y := net.Forward(x)
	if y.Len() != 10 {
		t.Fatalf("forward output length %d", y.Len())
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "dense-before-flatten", InShape: []int{1, 4, 4},
			Layers: []LayerSpec{{Kind: KindDense, Units: 3}}},
		{Name: "conv-after-flatten", InShape: []int{1, 4, 4},
			Layers: []LayerSpec{{Kind: KindFlatten}, {Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1}}},
		{Name: "bad-pool", InShape: []int{1, 5, 5},
			Layers: []LayerSpec{{Kind: KindAvgPool, Window: 2}}},
		{Name: "unknown", InShape: []int{1, 4, 4},
			Layers: []LayerSpec{{Kind: "bogus"}}},
		{Name: "bad-shape", InShape: []int{4, 4},
			Layers: nil},
	}
	for _, spec := range bad {
		if _, err := Build(spec, mathx.NewRNG(1)); err == nil {
			t.Errorf("Build accepted invalid spec %q", spec.Name)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU([]int{4}).NewState()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 4)
	y := l.Forward(x, false)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward = %v", y.Data)
		}
	}
	g := l.Backward(tensor.FromSlice([]float64{1, 1, 1, 1}, 4))
	wantG := []float64{0, 0, 1, 0}
	for i := range wantG {
		if g.Data[i] != wantG[i] {
			t.Fatalf("ReLU backward = %v", g.Data)
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	l := (&Dropout{Rate: 0.5, Shape: []int{100}, RNG: mathx.NewRNG(1)}).NewState()
	x := tensor.New(100)
	x.Fill(1)
	yEval := l.Forward(x, false)
	for _, v := range yEval.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
	yTrain := l.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept and rescaled by 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 25 || zeros > 75 {
		t.Fatalf("dropout rate far from 0.5: %d/100 zeros", zeros)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(mathx.NewRNG(1), 2, 2)
	copy(d.Weight.W.Data, []float64{1, 2, 3, 4})
	copy(d.Bias.W.Data, []float64{10, 20})
	y := d.NewState().Forward(tensor.FromSlice([]float64{1, 1}, 2), false)
	if y.Data[0] != 13 || y.Data[1] != 27 {
		t.Fatalf("dense forward = %v", y.Data)
	}
}

func TestTrainLearnsXORLikeTask(t *testing.T) {
	// A tiny nonlinear task: 2-pixel images, class = whether the two
	// pixels are on the same side of 0.5. Linear models cannot solve it;
	// an MLP with a hidden layer must.
	r := mathx.NewRNG(77)
	set := &dataset.Set{Name: "xor", C: 1, H: 1, W: 2, Classes: 2}
	mk := func(n int) []dataset.Sample {
		out := make([]dataset.Sample, n)
		for i := range out {
			a, b := r.Float64(), r.Float64()
			label := 0
			if (a > 0.5) != (b > 0.5) {
				label = 1
			}
			out[i] = dataset.Sample{Image: []float64{a, b}, Label: label}
		}
		return out
	}
	set.Train = mk(400)
	set.Test = mk(100)

	net, err := Build(MLP(1, 1, 2, []int{32}, 2), mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	stats := Train(net, set, NewAdam(0.02), TrainConfig{Epochs: 80, BatchSize: 16, Seed: 9})
	final := stats[len(stats)-1]
	if final.TestAcc < 0.9 {
		t.Fatalf("MLP failed to learn XOR-like task: test acc %.3f", final.TestAcc)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	set := dataset.SynthDigits(dataset.DigitsConfig{TrainPerClass: 10, TestPerClass: 3, Noise: 0.05, Seed: 4})
	net, err := Build(MLP(1, 28, 28, []int{32}, 10), mathx.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	stats := Train(net, set, NewSGD(0.05, 0.9, 0), TrainConfig{Epochs: 5, BatchSize: 16, Seed: 10, Log: &log})
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[len(stats)-1].Loss)
	}
	if log.Len() == 0 {
		t.Fatal("training log writer received nothing")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	spec := LeNetMini(1, 28, 28, 10)
	net, err := Build(spec, mathx.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, spec, net); err != nil {
		t.Fatal(err)
	}
	spec2, net2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Name != spec.Name {
		t.Fatalf("spec name %q != %q", spec2.Name, spec.Name)
	}
	x := tensor.New(1, 28, 28)
	x.RandNorm(mathx.NewRNG(12), 0.5, 0.2)
	y1 := net.Forward(x)
	y2 := net2.Forward(x)
	for i := range y1.Data {
		if math.Abs(y1.Data[i]-y2.Data[i]) > 1e-12 {
			t.Fatal("loaded model produces different outputs")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	spec := MLP(1, 2, 2, []int{3}, 2)
	net, _ := Build(spec, mathx.NewRNG(1))
	path := dir + "/model.gob"
	if err := SaveModelFile(path, spec, net); err != nil {
		t.Fatal(err)
	}
	_, net2, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if net2.NumParams() != net.NumParams() {
		t.Fatal("parameter count changed across save/load")
	}
}

// TestLoadModelRejectsNonFinite: a NaN or infinite weight or running
// statistic fails the load, naming its blob — a network carrying one
// would only surface downstream as a NaN output no JSON can hold.
func TestLoadModelRejectsNonFinite(t *testing.T) {
	spec := Spec{
		Name:    "nonfinite",
		InShape: []int{1, 4, 4},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm},
			{Kind: KindReLU},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 2},
		},
	}
	for _, tc := range []struct {
		name, want string
		spoil      func(net *Network)
	}{
		{"NaN output weight", "weight blob 4 (dense.w)", func(net *Network) {
			net.Params()[4].W.Data[3] = math.NaN()
		}},
		{"infinite running variance", "running stats of batchnorm layer 0", func(net *Network) {
			net.Layers[1].(*BatchNorm).RunVar[1] = math.Inf(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := Build(spec, mathx.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			tc.spoil(net)
			path := t.TempDir() + "/model.gob"
			if err := SaveModelFile(path, spec, net); err != nil {
				t.Fatal(err)
			}
			_, _, err = LoadModelFile(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadModelFile = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net, _ := Build(MLP(1, 1, 1, nil, 2), mathx.NewRNG(1))
	if acc := Evaluate(net, nil); acc != 0 {
		t.Fatalf("Evaluate(empty) = %v", acc)
	}
}

func TestForwardCollectLayerCount(t *testing.T) {
	spec := LeNetMini(1, 28, 28, 10)
	net, _ := Build(spec, mathx.NewRNG(2))
	outs := net.ForwardCollect(tensor.New(1, 28, 28))
	if len(outs) != len(net.Layers) {
		t.Fatalf("ForwardCollect returned %d outputs for %d layers", len(outs), len(net.Layers))
	}
	last := outs[len(outs)-1]
	if last.Len() != 10 {
		t.Fatalf("final output has %d elements", last.Len())
	}
}

func TestSGDMomentumMovesWeights(t *testing.T) {
	p := newParam("w", 2)
	p.W.Data[0], p.W.Data[1] = 1, 1
	p.Grad.Data[0], p.Grad.Data[1] = 1, -1
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*Param{p}, 1)
	if p.W.Data[0] >= 1 || p.W.Data[1] <= 1 {
		t.Fatalf("SGD moved weights in the wrong direction: %v", p.W.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam; gradient is 2(w-3).
	p := newParam("w", 1)
	p.W.Data[0] = 0
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p}, 1)
	}
	if math.Abs(p.W.Data[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: w = %v", p.W.Data[0])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 10
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}, 1) // grad is zero, only decay acts
	if p.W.Data[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.W.Data[0])
	}
}

func TestNetworkSummary(t *testing.T) {
	net, _ := Build(LeNetMini(1, 28, 28, 10), mathx.NewRNG(1))
	s := net.Summary()
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}

// spyLayer counts the backward calls it receives; withParams gives it a
// parameter, so Workspace.Backward treats it as a weighted layer. It is
// its own state.
type spyLayer struct {
	withParams            bool
	backwards, paramGrads int
}

func (s *spyLayer) Name() string                                    { return "spy" }
func (s *spyLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (s *spyLayer) OutShape() []int                                 { return nil }
func (s *spyLayer) NewState() State                                 { return s }
func (s *spyLayer) Backward(g *tensor.Tensor) *tensor.Tensor        { s.backwards++; return g }
func (s *spyLayer) backwardParams(*tensor.Tensor)                   { s.paramGrads++ }
func (s *spyLayer) Params() []*Param {
	if s.withParams {
		return []*Param{newParam("spy", 1)}
	}
	return nil
}

// TestBackwardStopsAtLowestParamLayer checks that Workspace.Backward asks
// the lowest layer with parameters for its parameter gradients only and
// never visits the layers below it, and that a network without
// parameters visits nothing.
func TestBackwardStopsAtLowestParamLayer(t *testing.T) {
	below, lowest, middle, top := &spyLayer{}, &spyLayer{withParams: true}, &spyLayer{withParams: true}, &spyLayer{}
	net := &Network{Layers: []Layer{below, lowest, middle, top}}
	net.NewWorkspace().Backward(tensor.New(1))
	for name, c := range map[string]struct {
		l                     *spyLayer
		backwards, paramGrads int
	}{
		"below":  {below, 0, 0},
		"lowest": {lowest, 0, 1},
		"middle": {middle, 1, 0},
		"top":    {top, 1, 0},
	} {
		if c.l.backwards != c.backwards || c.l.paramGrads != c.paramGrads {
			t.Errorf("%s layer: %d Backward and %d backwardParams calls, want %d and %d",
				name, c.l.backwards, c.l.paramGrads, c.backwards, c.paramGrads)
		}
	}

	free := &spyLayer{}
	(&Network{Layers: []Layer{free, &spyLayer{}}}).NewWorkspace().Backward(tensor.New(1))
	if free.backwards != 0 {
		t.Errorf("a network without parameters ran Backward %d times", free.backwards)
	}
}

// TestForwardCollectConcurrent runs ForwardCollect on one LeNetMini from
// several goroutines at once — as two model registrations sharing a net
// do — and checks every layer output of every call against a serial
// run. Each call has a workspace of its own, so under -race nothing is
// shared but the parameters, which inference only reads.
func TestForwardCollectConcurrent(t *testing.T) {
	net, err := Build(LeNetMini(3, 16, 16, 10), mathx.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	r := mathx.NewRNG(22)
	images := make([]*tensor.Tensor, 8)
	want := make([][]*tensor.Tensor, len(images))
	for i := range images {
		images[i] = tensor.New(3, 16, 16)
		images[i].RandNorm(r, 0.5, 0.3)
		want[i] = net.ForwardCollect(images[i])
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		go func(gr int) {
			for rep := 0; rep < 3; rep++ {
				for k := range images {
					i := (k + gr) % len(images)
					got := net.ForwardCollect(images[i])
					for l := range got {
						for e, v := range got[l].Data {
							if math.Float64bits(v) != math.Float64bits(want[i][l].Data[e]) {
								errs <- fmt.Errorf("goroutine %d, image %d, layer %d, element %d: %v, want %v",
									gr, i, l, e, v, want[i][l].Data[e])
								return
							}
						}
					}
				}
			}
			errs <- nil
		}(gr)
	}
	for gr := 0; gr < goroutines; gr++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestTrainSampleAllocations pins the trainer's per-sample cost: on a
// warmed workspace, one LeNetMini 3×16×16 training sample — forward with
// training behaviour, loss and backward — allocates (almost) nothing.
func TestTrainSampleAllocations(t *testing.T) {
	net, err := Build(LeNetMini(3, 16, 16, 10), mathx.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 16, 16)
	x.RandNorm(mathx.NewRNG(24), 0.5, 0.3)
	ws := net.NewWorkspace()
	sample := func() {
		_, g := ws.Loss(ws.Forward(x, true), 3)
		ws.Backward(g)
	}
	sample()
	if allocs := testing.AllocsPerRun(20, sample); allocs > 4 {
		t.Fatalf("a training sample makes %v allocations, want at most 4", allocs)
	}
}
