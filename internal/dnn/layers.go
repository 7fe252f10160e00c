package dnn

import (
	"fmt"
	"math"

	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out × In
	Bias    *Param // Out
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
func (d *Dense) NewState() State  { return &denseState{d: d, out: tensor.New(d.Out)} }

type denseState struct {
	d *Dense
	// in is the sample's input, read by backwardParams (not a copy).
	in      []float64
	out, dx *tensor.Tensor
}

func (s *denseState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	d := s.d
	if x.Len() != d.In {
		panic(fmt.Sprintf("dnn: dense expects %d inputs, got %d", d.In, x.Len()))
	}
	s.in = x.Data
	y := s.out.Data
	tensor.MatVec(y, d.Weight.W.Data, x.Data)
	for i := range y {
		y[i] += d.Bias.W.Data[i]
	}
	return s.out
}

func (s *denseState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.backwardParams(grad)
	if s.dx == nil {
		s.dx = tensor.New(s.d.In)
	}
	// dx = Wᵀ g: the rows of W scaled by the non-zero g, in ascending o.
	clear(s.dx.Data)
	tensor.MatMulAdd(s.dx.Data, grad.Data, s.d.Weight.W.Data, 1, s.d.Out, s.d.In)
	return s.dx
}

// backwardParams accumulates dW += g xᵀ (row o += g[o]·x for the non-zero
// g[o]) and db += g.
func (s *denseState) backwardParams(grad *tensor.Tensor) {
	d := s.d
	tensor.MatMulAdd(d.Weight.Grad.Data, grad.Data, s.in, d.Out, 1, d.In)
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

func (c *Conv2D) NewState() State {
	s := c.Spec
	st := &convState{c: c,
		out: tensor.New(c.OutShape()...),
		wsc: make([]float64, s.InC*s.KH*s.KW*s.OutC),
	}
	// kernels.ConvGather64 takes stride-1 square kernels; any other
	// geometry multiplies Im2Col's column matrix.
	if s.Stride == 1 && s.KH == s.KW {
		st.plane = make([]float64, s.InC*(s.InH+2*s.Pad)*(s.InW+2*s.Pad))
	} else {
		st.cols = make([]float64, s.InC*s.KH*s.KW*s.OutH()*s.OutW())
	}
	return st
}

// convState is a convolution's share of a workspace.
type convState struct {
	c   *Conv2D
	out *tensor.Tensor
	// wsc is the weights tap-major (wsc[p·OutC+oc] = W[oc][p]), the
	// layout the gather reads and the input gradient's Wᵀ·g multiplies.
	wsc []float64
	// plane is the zero-padded input the gather reads; its border is
	// never written. cols is Im2Col's matrix where the layer does not
	// gather.
	plane, cols []float64
	// in is the sample's input, read by backwardParams (not a copy).
	in []float64

	// Backward's buffers, allocated on its first call.
	table     *tensor.ConvGradTable
	acc, gT   []float64
	ev        []kernels.Event
	dcols, dx *tensor.Tensor
}

// Forward computes the convolution. A stride-1 square kernel gathers
// each output cell's receptive field from the padded plane in ascending
// (ic, kh, kw) order from +0 and then adds the bias: the im2col product's
// arithmetic bit for bit, because that product adds the same rounded
// terms in the same order, and the padded cells and zero weights it
// skips add ±0, which leaves a sum from +0 unchanged — for finite inputs
// and weights (w·0 is NaN for an infinite one), which training keeps.
func (s *convState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	c, sp := s.c, s.c.Spec
	if x.Len() != sp.InC*sp.InH*sp.InW {
		panic(fmt.Sprintf("dnn: conv expects %d inputs, got %d", sp.InC*sp.InH*sp.InW, x.Len()))
	}
	s.in = x.Data
	fanIn := sp.InC * sp.KH * sp.KW
	w := c.Weight.W.Data
	for oc := 0; oc < sp.OutC; oc++ {
		for p, v := range w[oc*fanIn : (oc+1)*fanIn] {
			s.wsc[p*sp.OutC+oc] = v
		}
	}
	out := s.out.Data
	n := sp.OutH() * sp.OutW()
	if s.plane != nil {
		ph, pw := sp.InH+2*sp.Pad, sp.InW+2*sp.Pad
		for ic := 0; ic < sp.InC; ic++ {
			for iy := 0; iy < sp.InH; iy++ {
				src := x.Data[(ic*sp.InH+iy)*sp.InW : (ic*sp.InH+iy+1)*sp.InW]
				copy(s.plane[(ic*ph+iy+sp.Pad)*pw+sp.Pad:], src)
			}
		}
		clear(out)
		kernels.ConvGather64(out, s.plane, s.wsc, sp.InC, sp.KH, ph, pw)
	} else {
		tensor.Im2Col(s.cols, x.Data, sp)
		clear(out)
		tensor.MatMulAdd(out, w, s.cols, sp.OutC, fanIn, n)
	}
	for oc := 0; oc < sp.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		row := out[oc*n : (oc+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	return s.out
}

func (s *convState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.backwardParams(grad)
	sp := s.c.Spec
	if s.dx == nil {
		s.dcols = tensor.New(sp.InC*sp.KH*sp.KW, sp.OutH()*sp.OutW())
		s.dx = tensor.New(sp.InC, sp.InH, sp.InW)
	}
	// dx = col2im(Wᵀ · g), Wᵀ being the forward's tap-major copy.
	clear(s.dcols.Data)
	tensor.MatMulAdd(s.dcols.Data, s.wsc, grad.Data, sp.InC*sp.KH*sp.KW, sp.OutC, sp.OutH()*sp.OutW())
	tensor.Col2Im(s.dx.Data, s.dcols.Data, sp)
	return s.dx
}

// backwardParams accumulates dW += g · colsᵀ, formed from the input's
// events by ConvGradTable.FilterGrad (exact for a finite g), and db +=
// the row sums of g.
func (s *convState) backwardParams(grad *tensor.Tensor) {
	c, sp := s.c, s.c.Spec
	if s.table == nil {
		s.table = tensor.NewConvGradTable(sp)
		s.acc = make([]float64, len(s.wsc))
		s.gT = make([]float64, s.out.Len())
		s.ev = make([]kernels.Event, len(s.in))
	}
	s.table.FilterGrad(s.acc, grad.Data, s.in, s.gT, s.ev)
	fanIn := sp.InC * sp.KH * sp.KW
	dw := c.Weight.Grad.Data
	for oc := 0; oc < sp.OutC; oc++ {
		row := dw[oc*fanIn : (oc+1)*fanIn]
		for p := range row {
			row[p] += s.acc[p*sp.OutC+oc]
		}
	}
	n := sp.OutH() * sp.OutW()
	for oc := 0; oc < sp.OutC; oc++ {
		sum := 0.0
		for _, v := range grad.Data[oc*n : (oc+1)*n] {
			sum += v
		}
		c.Bias.Grad.Data[oc] += sum
	}
}

// ReLU is the rectified-linear activation. Conversion-friendly networks
// use ReLU after every weighted layer because an IF neuron's firing rate
// approximates exactly the ReLU transfer function.
type ReLU struct {
	shape []int
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
func (l *ReLU) NewState() State {
	out := tensor.New(l.shape...)
	return &reluState{out: out, mask: make([]bool, out.Len())}
}

type reluState struct {
	out, dx *tensor.Tensor
	mask    []bool
}

func (s *reluState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := s.out.Data[:x.Len()]
	for i, v := range x.Data {
		if v > 0 {
			out[i], s.mask[i] = v, true
		} else {
			out[i], s.mask[i] = 0, false
		}
	}
	return s.out
}

func (s *reluState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.dx == nil {
		s.dx = tensor.New(s.out.Shape...)
	}
	dx := s.dx.Data
	copy(dx, grad.Data)
	for i := range dx {
		if !s.mask[i] {
			dx[i] = 0
		}
	}
	return s.dx
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
func (l *AvgPool2D) NewState() State { return &avgPoolState{l: l, out: tensor.New(l.OutShape()...)} }

type avgPoolState struct {
	l       *AvgPool2D
	out, dx *tensor.Tensor
}

func (s *avgPoolState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l := s.l
	tensor.AvgPool2D(s.out.Data, x.Data, l.C, l.H, l.W, l.Window)
	return s.out
}

func (s *avgPoolState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l := s.l
	if s.dx == nil {
		s.dx = tensor.New(l.C, l.H, l.W)
	}
	dx := s.dx.Data
	clear(dx)
	outH, outW := l.H/l.Window, l.W/l.Window
	inv := 1.0 / float64(l.Window*l.Window)
	for c := 0; c < l.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				g := grad.Data[(c*outH+oy)*outW+ox] * inv
				for ky := 0; ky < l.Window; ky++ {
					row := (c*l.H + oy*l.Window + ky) * l.W
					for kx := 0; kx < l.Window; kx++ {
						dx[row+ox*l.Window+kx] += g
					}
				}
			}
		}
	}
	return s.dx
}

// MaxPool2D is non-overlapping max pooling.
type MaxPool2D struct {
	C, H, W, Window int
}

func (l *MaxPool2D) Name() string     { return "maxpool" }
func (l *MaxPool2D) Params() []*Param { return nil }
func (l *MaxPool2D) OutShape() []int {
	return []int{l.C, l.H / l.Window, l.W / l.Window}
}
func (l *MaxPool2D) NewState() State {
	out := tensor.New(l.OutShape()...)
	return &maxPoolState{l: l, out: out, arg: make([]int, out.Len())}
}

type maxPoolState struct {
	l       *MaxPool2D
	out, dx *tensor.Tensor
	arg     []int
}

func (s *maxPoolState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l := s.l
	tensor.MaxPool2D(s.out.Data, s.arg, x.Data, l.C, l.H, l.W, l.Window)
	return s.out
}

func (s *maxPoolState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.dx == nil {
		s.dx = tensor.New(s.l.C, s.l.H, s.l.W)
	}
	clear(s.dx.Data)
	for o, idx := range s.arg {
		s.dx.Data[idx] += grad.Data[o]
	}
	return s.dx
}

// Flatten reshapes a CHW tensor into a vector.
type Flatten struct {
	InShapeSpec []int
}

func (l *Flatten) Name() string     { return "flatten" }
func (l *Flatten) Params() []*Param { return nil }
func (l *Flatten) OutShape() []int  { return []int{volume(l.InShapeSpec)} }
func (l *Flatten) NewState() State {
	return &flattenState{
		out: tensor.Tensor{Shape: l.OutShape()},
		dx:  tensor.Tensor{Shape: append([]int(nil), l.InShapeSpec...)},
	}
}

// flattenState holds the two views Flatten returns: its input as a
// vector and the gradient in the input's shape, sharing their data.
type flattenState struct {
	out, dx tensor.Tensor
}

func (s *flattenState) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Len() != s.out.Shape[0] {
		panic(fmt.Sprintf("dnn: flatten expects %d values, got %d", s.out.Shape[0], x.Len()))
	}
	s.out.Data = x.Data
	return &s.out
}

func (s *flattenState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.dx.Data = grad.Data
	return &s.dx
}

// Dropout randomly zeroes activations during training with probability
// Rate and rescales survivors by 1/(1-Rate) (inverted dropout), so
// inference needs no adjustment.
type Dropout struct {
	Rate  float64
	Shape []int
	RNG   *mathx.RNG
}

func (l *Dropout) Name() string     { return "dropout" }
func (l *Dropout) Params() []*Param { return nil }
func (l *Dropout) OutShape() []int  { return l.Shape }
func (l *Dropout) NewState() State  { return &dropoutState{l: l} }

type dropoutState struct {
	l       *Dropout
	out, dx *tensor.Tensor
	mask    []bool
	// dropped records whether the last Forward dropped anything; an
	// inference pass returns its input and Backward its gradient.
	dropped bool
}

func (s *dropoutState) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l := s.l
	if !train || l.Rate <= 0 {
		s.dropped = false
		return x
	}
	if s.out == nil {
		s.out = tensor.New(x.Shape...)
		s.mask = make([]bool, x.Len())
	}
	s.dropped = true
	out := s.out.Data
	copy(out, x.Data)
	scale := 1 / (1 - l.Rate)
	for i := range out {
		if l.RNG.Bernoulli(l.Rate) {
			s.mask[i] = false
			out[i] = 0
		} else {
			s.mask[i] = true
			out[i] *= scale
		}
	}
	return s.out
}

func (s *dropoutState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !s.dropped {
		return grad
	}
	if s.dx == nil {
		s.dx = tensor.New(grad.Shape...)
	}
	dx := s.dx.Data
	copy(dx, grad.Data)
	scale := 1 / (1 - s.l.Rate)
	for i := range dx {
		if s.mask[i] {
			dx[i] *= scale
		} else {
			dx[i] = 0
		}
	}
	return s.dx
}
