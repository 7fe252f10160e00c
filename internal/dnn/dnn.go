// Package dnn is a from-scratch CPU deep-learning framework: the substrate
// the paper assumes when it says "a trained DNN". It provides the layers,
// losses, and optimizers needed to train the ReLU CNNs (LeNet-mini,
// VGG-mini) that the DNN→SNN conversion experiments start from, plus the
// activation recording hooks that weight normalization requires.
//
// The framework processes one sample at a time (mini-batches accumulate
// gradients across samples); at the model sizes this repository uses that
// is simpler and fast enough, and it keeps every layer's backward pass
// easy to verify with numerical gradient checks.
package dnn

import (
	"fmt"

	"burstsnn/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is one differentiable stage of a network. Forward stores whatever
// state Backward needs, so a Layer instance is not safe for concurrent
// samples; Network runs samples sequentially.
type Layer interface {
	// Name identifies the layer kind for logging and serialization.
	Name() string
	// Forward computes the layer output. train enables behaviour such as
	// dropout that differs between training and inference.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters, or nil.
	Params() []*Param
	// OutShape returns the output shape for the configured input shape.
	OutShape() []int
}

// Network is an ordered stack of layers.
type Network struct {
	Layers  []Layer
	InShape []int
}

// Forward runs inference (train=false) through all layers.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.forward(x, false)
}

func (n *Network) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// ForwardCollect runs inference and returns the output of every layer, in
// order. The conversion code uses this to record activation statistics.
func (n *Network) ForwardCollect(x *tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, 0, len(n.Layers))
	for _, l := range n.Layers {
		x = l.Forward(x, false)
		outs = append(outs, x)
	}
	return outs
}

// paramGrader is a layer that can accumulate its parameter gradients
// without forming its input gradient.
type paramGrader interface {
	backwardParams(grad *tensor.Tensor)
}

// Backward propagates the loss gradient through the layers in reverse,
// down to the lowest layer with parameters. Nothing reads the gradient
// below that layer, so it only accumulates its parameter gradients (when
// it is a paramGrader) and the layers under it are not visited.
func (n *Network) Backward(grad *tensor.Tensor) {
	low := 0
	for low < len(n.Layers) && len(n.Layers[low].Params()) == 0 {
		low++
	}
	for i := len(n.Layers) - 1; i > low; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if low == len(n.Layers) {
		return
	}
	if pg, ok := n.Layers[low].(paramGrader); ok {
		pg.backwardParams(grad)
	} else {
		n.Layers[low].Backward(grad)
	}
}

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// OutShape returns the network's final output shape.
func (n *Network) OutShape() []int {
	if len(n.Layers) == 0 {
		return n.InShape
	}
	return n.Layers[len(n.Layers)-1].OutShape()
}

// NumParams returns the total number of scalar weights.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// Summary returns a human-readable architecture description.
func (n *Network) Summary() string {
	s := fmt.Sprintf("input %v\n", n.InShape)
	for i, l := range n.Layers {
		s += fmt.Sprintf("%2d %-10s -> %v\n", i, l.Name(), l.OutShape())
	}
	s += fmt.Sprintf("parameters: %d\n", n.NumParams())
	return s
}
