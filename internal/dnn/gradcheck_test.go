package dnn

import (
	"math"
	"testing"

	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

// numericalGrad estimates dLoss/dθ for every parameter element with
// central differences, where loss is softmax-CE of the network output.
func numericalGrad(t *testing.T, net *Network, x *tensor.Tensor, label int, p *Param, eps float64) []float64 {
	t.Helper()
	grad := make([]float64, p.W.Len())
	for i := range p.W.Data {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		lossPlus, _ := CrossEntropyLoss(net.Forward(x), label)
		p.W.Data[i] = orig - eps
		lossMinus, _ := CrossEntropyLoss(net.Forward(x), label)
		p.W.Data[i] = orig
		grad[i] = (lossPlus - lossMinus) / (2 * eps)
	}
	return grad
}

// checkGradients compares analytic and numerical gradients for every
// parameter of the network on one sample.
func checkGradients(t *testing.T, spec Spec, seed uint64) {
	t.Helper()
	r := mathx.NewRNG(seed)
	net, err := Build(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(spec.InShape...)
	x.RandNorm(r, 0.3, 0.4)
	label := 1

	net.ZeroGrads()
	ws := net.NewWorkspace()
	logits := ws.Forward(x, false)
	_, lossGrad := CrossEntropyLoss(logits, label)
	ws.Backward(lossGrad)

	for _, p := range net.Params() {
		num := numericalGrad(t, net, x, label, p, 1e-5)
		for i := range num {
			got := p.Grad.Data[i]
			want := num[i]
			diff := math.Abs(got - want)
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if diff/scale > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numerical %v", p.Name, i, got, want)
			}
		}
	}
}

func TestGradDense(t *testing.T) {
	checkGradients(t, MLP(1, 2, 3, []int{5}, 3), 1)
}

func TestGradDeepMLP(t *testing.T) {
	checkGradients(t, MLP(1, 2, 2, []int{6, 4}, 3), 2)
}

func TestGradConvNet(t *testing.T) {
	spec := Spec{
		Name:    "tiny-conv",
		InShape: []int{2, 6, 6},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 3, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindAvgPool, Window: 2},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 4},
		},
	}
	checkGradients(t, spec, 3)
}

func TestGradConvStride2(t *testing.T) {
	spec := Spec{
		Name:    "stride2",
		InShape: []int{1, 7, 7},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 2, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 3},
		},
	}
	checkGradients(t, spec, 4)
}

func TestGradMaxPoolNet(t *testing.T) {
	spec := Spec{
		Name:    "maxpool-net",
		InShape: []int{1, 4, 4},
		Layers: []LayerSpec{
			{Kind: KindConv, OutC: 2, K: 3, Stride: 1, Pad: 1},
			{Kind: KindMaxPool, Window: 2},
			{Kind: KindFlatten},
			{Kind: KindDense, Units: 3},
		},
	}
	checkGradients(t, spec, 5)
}
