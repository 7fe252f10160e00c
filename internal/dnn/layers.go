package dnn

import (
	"fmt"
	"math"

	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out × In
	Bias    *Param // Out

	lastIn *tensor.Tensor
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(r *mathx.RNG, in, out int) *Dense {
	d := &Dense{In: in, Out: out,
		Weight: newParam("dense.w", out, in),
		Bias:   newParam("dense.b", out),
	}
	d.Weight.W.RandNorm(r, 0, math.Sqrt(2/float64(in)))
	return d
}

func (d *Dense) Name() string     { return "dense" }
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
func (d *Dense) OutShape() []int  { return []int{d.Out} }

func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Len() != d.In {
		panic(fmt.Sprintf("dnn: dense expects %d inputs, got %d", d.In, x.Len()))
	}
	d.lastIn = x
	y := tensor.MatVec(d.Weight.W, x.Data)
	for i := range y {
		y[i] += d.Bias.W.Data[i]
	}
	return tensor.FromSlice(y, d.Out)
}

func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	// dx = Wᵀ g: the rows of W scaled by the non-zero g, in ascending o.
	dx := make([]float64, d.In)
	tensor.MatMulAdd(dx, grad.Data, d.Weight.W.Data, 1, d.Out, d.In)
	return tensor.FromSlice(dx, d.In)
}

// backwardParams accumulates dW += g xᵀ (row o += g[o]·x for the non-zero
// g[o]) and db += g.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	tensor.MatMulAdd(d.Weight.Grad.Data, grad.Data, d.lastIn.Data, d.Out, 1, d.In)
	for o, g := range grad.Data {
		if g != 0 {
			d.Bias.Grad.Data[o] += g
		}
	}
}

// Conv2D is a 2-D convolution layer over CHW tensors.
type Conv2D struct {
	Spec   tensor.ConvSpec
	Weight *Param // OutC × InC*KH*KW
	Bias   *Param // OutC

	lastCols *tensor.Tensor
}

// NewConv2D creates a He-initialized convolution layer.
func NewConv2D(r *mathx.RNG, spec tensor.ConvSpec) *Conv2D {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	fanIn := spec.InC * spec.KH * spec.KW
	c := &Conv2D{Spec: spec,
		Weight: newParam("conv.w", spec.OutC, fanIn),
		Bias:   newParam("conv.b", spec.OutC),
	}
	c.Weight.W.RandNorm(r, 0, math.Sqrt(2/float64(fanIn)))
	return c
}

func (c *Conv2D) Name() string     { return "conv2d" }
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }
func (c *Conv2D) OutShape() []int {
	return []int{c.Spec.OutC, c.Spec.OutH(), c.Spec.OutW()}
}

func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	cols := tensor.Im2Col(x, c.Spec)
	c.lastCols = cols
	prod := tensor.MatMul(c.Weight.W, cols)
	outH, outW := c.Spec.OutH(), c.Spec.OutW()
	n := outH * outW
	for oc := 0; oc < c.Spec.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		row := prod.Data[oc*n : (oc+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	return prod.Reshape(c.Spec.OutC, outH, outW)
}

func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	// dx = col2im(Wᵀ · g).
	g2d := grad.Reshape(c.Spec.OutC, c.Spec.OutH()*c.Spec.OutW())
	dcols := tensor.MatMulTransA(c.Weight.W, g2d)
	return tensor.Col2Im(dcols, c.Spec)
}

// backwardParams accumulates dW += g · colsᵀ and db += the row sums of g.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	n := c.Spec.OutH() * c.Spec.OutW()
	g2d := grad.Reshape(c.Spec.OutC, n)
	c.Weight.Grad.AddInPlace(tensor.MatMulTransB(g2d, c.lastCols))
	for oc := 0; oc < c.Spec.OutC; oc++ {
		s := 0.0
		for _, v := range g2d.Data[oc*n : (oc+1)*n] {
			s += v
		}
		c.Bias.Grad.Data[oc] += s
	}
}

// ReLU is the rectified-linear activation. Conversion-friendly networks
// use ReLU after every weighted layer because an IF neuron's firing rate
// approximates exactly the ReLU transfer function.
type ReLU struct {
	shape []int
	mask  []bool
}

// NewReLU creates a ReLU for the given input/output shape.
func NewReLU(shape []int) *ReLU {
	s := make([]int, len(shape))
	copy(s, shape)
	return &ReLU{shape: s}
}

func (l *ReLU) Name() string     { return "relu" }
func (l *ReLU) Params() []*Param { return nil }
func (l *ReLU) OutShape() []int  { return l.shape }

func (l *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.Clone()
	if cap(l.mask) < len(out.Data) {
		l.mask = make([]bool, len(out.Data))
	}
	l.mask = l.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i := range out.Data {
		if !l.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// AvgPool2D is non-overlapping average pooling. Converted SNNs prefer
// average pooling because it is a linear operation that spiking neurons
// implement exactly (Cao et al. 2015).
type AvgPool2D struct {
	C, H, W, Window int
}

func (l *AvgPool2D) Name() string     { return "avgpool" }
func (l *AvgPool2D) Params() []*Param { return nil }
func (l *AvgPool2D) OutShape() []int {
	return []int{l.C, l.H / l.Window, l.W / l.Window}
}

func (l *AvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return tensor.AvgPool2D(x, l.C, l.H, l.W, l.Window)
}

func (l *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	outH, outW := l.H/l.Window, l.W/l.Window
	dx := tensor.New(l.C, l.H, l.W)
	inv := 1.0 / float64(l.Window*l.Window)
	for c := 0; c < l.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				g := grad.Data[(c*outH+oy)*outW+ox] * inv
				for ky := 0; ky < l.Window; ky++ {
					row := (c*l.H + oy*l.Window + ky) * l.W
					for kx := 0; kx < l.Window; kx++ {
						dx.Data[row+ox*l.Window+kx] += g
					}
				}
			}
		}
	}
	return dx
}

// MaxPool2D is non-overlapping max pooling.
type MaxPool2D struct {
	C, H, W, Window int

	lastArg []int
}

func (l *MaxPool2D) Name() string     { return "maxpool" }
func (l *MaxPool2D) Params() []*Param { return nil }
func (l *MaxPool2D) OutShape() []int {
	return []int{l.C, l.H / l.Window, l.W / l.Window}
}

func (l *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out, arg := tensor.MaxPool2D(x, l.C, l.H, l.W, l.Window)
	l.lastArg = arg
	return out
}

func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(l.C, l.H, l.W)
	for o, idx := range l.lastArg {
		dx.Data[idx] += grad.Data[o]
	}
	return dx
}

// Flatten reshapes a CHW tensor into a vector.
type Flatten struct {
	InShapeSpec []int
}

func (l *Flatten) Name() string     { return "flatten" }
func (l *Flatten) Params() []*Param { return nil }
func (l *Flatten) OutShape() []int {
	n := 1
	for _, d := range l.InShapeSpec {
		n *= d
	}
	return []int{n}
}

func (l *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	return x.Reshape(x.Len())
}

func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(l.InShapeSpec...)
}

// Dropout randomly zeroes activations during training with probability
// Rate and rescales survivors by 1/(1-Rate) (inverted dropout), so
// inference needs no adjustment.
type Dropout struct {
	Rate  float64
	Shape []int
	RNG   *mathx.RNG

	mask []bool
}

func (l *Dropout) Name() string     { return "dropout" }
func (l *Dropout) Params() []*Param { return nil }
func (l *Dropout) OutShape() []int  { return l.Shape }

func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.Rate <= 0 {
		l.mask = nil
		return x
	}
	out := x.Clone()
	if cap(l.mask) < len(out.Data) {
		l.mask = make([]bool, len(out.Data))
	}
	l.mask = l.mask[:len(out.Data)]
	scale := 1 / (1 - l.Rate)
	for i := range out.Data {
		if l.RNG.Bernoulli(l.Rate) {
			l.mask[i] = false
			out.Data[i] = 0
		} else {
			l.mask[i] = true
			out.Data[i] *= scale
		}
	}
	return out
}

func (l *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.mask == nil {
		return grad
	}
	out := grad.Clone()
	scale := 1 / (1 - l.Rate)
	for i := range out.Data {
		if l.mask[i] {
			out.Data[i] *= scale
		} else {
			out.Data[i] = 0
		}
	}
	return out
}
