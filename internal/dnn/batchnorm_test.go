package dnn

import (
	"bytes"
	"math"
	"testing"

	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

func TestBatchNormIdentityAtInit(t *testing.T) {
	// γ=1, β=0, running stats (0,1): inference BN is ~identity.
	bn := NewBatchNorm(2, 3, 3)
	x := tensor.New(2, 3, 3)
	x.RandNorm(mathx.NewRNG(1), 0, 1)
	y := bn.NewState().Forward(x, false)
	for i := range x.Data {
		if math.Abs(y.Data[i]-x.Data[i]) > 1e-3 {
			t.Fatalf("initial inference BN is not identity at %d: %v vs %v", i, y.Data[i], x.Data[i])
		}
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	bn := NewBatchNorm(1, 4, 4)
	x := tensor.New(1, 4, 4)
	r := mathx.NewRNG(2)
	for i := range x.Data {
		x.Data[i] = r.Norm(5, 3) // deliberately off-center
	}
	y := bn.NewState().Forward(x, true)
	mean, meanSq := 0.0, 0.0
	for _, v := range y.Data {
		mean += v
		meanSq += v * v
	}
	mean /= 16
	variance := meanSq/16 - mean*mean
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
		t.Fatalf("train-mode output not normalized: mean %v var %v", mean, variance)
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := NewBatchNorm(1, 8, 8)
	r := mathx.NewRNG(3)
	x := tensor.New(1, 8, 8)
	st := bn.NewState()
	for step := 0; step < 300; step++ {
		for i := range x.Data {
			x.Data[i] = r.Norm(2, 0.5)
		}
		st.Forward(x, true)
	}
	if math.Abs(bn.RunMean[0]-2) > 0.2 {
		t.Fatalf("running mean %v, want ~2", bn.RunMean[0])
	}
	if math.Abs(bn.RunVar[0]-0.25) > 0.1 {
		t.Fatalf("running var %v, want ~0.25", bn.RunVar[0])
	}
}

// Train-mode gradient check: numerical vs analytic through the instance
// statistics.
func TestBatchNormGradTrainMode(t *testing.T) {
	r := mathx.NewRNG(4)
	spec := Spec{
		Name:    "bn-net",
		InShape: []int{2, 4, 4},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm},
			{Kind: KindReLU},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 3},
		},
	}
	net, err := Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4, 4)
	x.RandNorm(r, 0.3, 0.5)
	label := 1

	ws := net.NewWorkspace()
	lossAt := func() float64 {
		loss, _ := CrossEntropyLoss(ws.Forward(x, true), label)
		return loss
	}
	net.ZeroGrads()
	logits := ws.Forward(x, true)
	_, g := CrossEntropyLoss(logits, label)
	ws.Backward(g)

	const eps = 1e-5
	for _, p := range net.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			plus := lossAt()
			p.W.Data[i] = orig - eps
			minus := lossAt()
			p.W.Data[i] = orig
			want := (plus - minus) / (2 * eps)
			got := p.Grad.Data[i]
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if math.Abs(got-want)/scale > 1e-3 {
				t.Fatalf("%s[%d]: analytic %v vs numerical %v", p.Name, i, got, want)
			}
		}
	}
}

// Inference-mode gradcheck: BN is a constant affine.
func TestBatchNormGradEvalMode(t *testing.T) {
	spec := Spec{
		Name:    "bn-eval",
		InShape: []int{1, 4, 4},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm},
			{Kind: KindReLU},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 2},
		},
	}
	checkGradients(t, spec, 7)
}

func TestBatchNormFoldedAffine(t *testing.T) {
	bn := NewBatchNorm(2, 2, 2)
	bn.Gamma.W.Data[0], bn.Gamma.W.Data[1] = 2, 0.5
	bn.Beta.W.Data[0], bn.Beta.W.Data[1] = 1, -1
	bn.RunMean[0], bn.RunMean[1] = 3, -2
	bn.RunVar[0], bn.RunVar[1] = 4, 0.25

	scale, shift := bn.FoldedAffine()
	x := tensor.New(2, 2, 2)
	x.RandNorm(mathx.NewRNG(5), 0, 2)
	y := bn.NewState().Forward(x, false)
	hw := 4
	for c := 0; c < 2; c++ {
		for i := 0; i < hw; i++ {
			want := scale[c]*x.Data[c*hw+i] + shift[c]
			if math.Abs(y.Data[c*hw+i]-want) > 1e-9 {
				t.Fatalf("folded affine mismatch at c=%d i=%d", c, i)
			}
		}
	}
}

func TestBuildRejectsBatchNormAfterFlatten(t *testing.T) {
	spec := Spec{
		Name:    "bad-bn",
		InShape: []int{1, 2, 2},
		Layers:  []LayerSpec{{Kind: KindFlatten}, {Kind: KindBatchNorm}},
	}
	if _, err := Build(spec, mathx.NewRNG(1)); err == nil {
		t.Fatal("BN after flatten accepted")
	}
}

func TestSaveLoadPreservesRunningStats(t *testing.T) {
	spec := Spec{
		Name:    "bn-io",
		InShape: []int{1, 4, 4},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm},
			{Kind: KindReLU},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 2},
		},
	}
	net, err := Build(spec, mathx.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// Drive the running stats away from the defaults.
	x := tensor.New(1, 4, 4)
	r := mathx.NewRNG(7)
	ws := net.NewWorkspace()
	for i := 0; i < 50; i++ {
		x.RandNorm(r, 1, 2)
		ws.Forward(x, true)
	}

	var buf bytes.Buffer
	if err := SaveModel(&buf, spec, net); err != nil {
		t.Fatal(err)
	}
	_, net2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x.RandNorm(r, 0.5, 1)
	y1 := net.Forward(x)
	y2 := net2.Forward(x)
	for i := range y1.Data {
		if math.Abs(y1.Data[i]-y2.Data[i]) > 1e-12 {
			t.Fatal("inference differs after save/load (running stats lost?)")
		}
	}
}

func TestVGG16SpecBuildsAndRuns(t *testing.T) {
	net, err := Build(VGG16(3, 32, 32, 10), mathx.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	// 13 conv + 3 dense = 16 weighted layers.
	weighted := 0
	for _, l := range net.Layers {
		switch l.(type) {
		case *Conv2D, *Dense:
			weighted++
		}
	}
	if weighted != 16 {
		t.Fatalf("VGG16 has %d weighted layers", weighted)
	}
	y := net.Forward(tensor.New(3, 32, 32))
	if y.Len() != 10 {
		t.Fatalf("output %v", y.Shape)
	}
}

func TestVGGMiniBNBuilds(t *testing.T) {
	net, err := Build(VGGMiniBN(3, 16, 16, 10), mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	bns := 0
	for _, l := range net.Layers {
		if _, ok := l.(*BatchNorm); ok {
			bns++
		}
	}
	if bns != 5 {
		t.Fatalf("expected 5 BN layers, got %d", bns)
	}
}
