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
//
// A Layer holds only its configuration and parameters. Everything a
// sample writes — layer outputs, the inputs and masks Backward reads,
// padded input planes, gradients and scratch — lives in a Workspace the
// caller owns (Network.NewWorkspace), so a warmed training sample
// allocates nothing. Train makes one workspace for the whole run;
// Evaluate, Forward and ForwardCollect make one per call and drop it when
// they return, so the network references none of it afterwards. That is
// also the concurrency contract: any number of goroutines may run
// inference on one Network at once, each through its own workspace.
// Training writes the parameters (and batch norm's running statistics and
// dropout's random stream), so it needs the network to itself.
package dnn

import (
	"fmt"

	"burstsnn/internal/dataset"
	"burstsnn/internal/mathx"
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

// Layer is one differentiable stage of a network: its configuration
// and parameters. What a sample writes on its way through lives in the
// layer's State, so one Layer serves any number of workspaces.
type Layer interface {
	// Name identifies the layer kind for logging and serialization.
	Name() string
	// Params returns the trainable parameters, or nil.
	Params() []*Param
	// OutShape returns the output shape for the configured input shape.
	OutShape() []int
	// NewState allocates the layer's share of a workspace.
	NewState() State
}

// State is one layer's share of a Workspace: its output, what Backward
// needs from the forward pass, and its gradient buffers. It serves one
// sample at a time: Forward stores what Backward reads, and the tensors
// either returns are the state's own, valid until its next call.
type State interface {
	// Forward computes the layer output. train enables behaviour such as
	// dropout that differs between training and inference.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
}

// Network is an ordered stack of layers.
type Network struct {
	Layers  []Layer
	InShape []int
}

// Forward runs inference (train=false) through all layers on a workspace
// of its own.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.NewWorkspace().Forward(x, false)
}

// ForwardCollect runs inference and returns the output of every layer, in
// order, on a workspace of its own.
func (n *Network) ForwardCollect(x *tensor.Tensor) []*tensor.Tensor {
	return n.NewWorkspace().ForwardCollect(x, nil)
}

// Workspace is everything one sample writes as it passes through a
// network: one State per layer, the loss gradient and the input header.
// It serves one sample at a time; give each goroutine its own.
type Workspace struct {
	states []State
	// low is the lowest layer with parameters: nothing reads the
	// gradient below it, so Backward stops there.
	low  int
	in   tensor.Tensor
	grad *tensor.Tensor
}

// NewWorkspace allocates a workspace for n. Buffers only Backward uses
// are allocated on its first call.
func (n *Network) NewWorkspace() *Workspace {
	w := &Workspace{
		states: make([]State, len(n.Layers)),
		in:     tensor.Tensor{Shape: append([]int(nil), n.InShape...)},
		grad:   tensor.New(n.OutShape()...),
	}
	for i, l := range n.Layers {
		w.states[i] = l.NewState()
	}
	for w.low < len(n.Layers) && len(n.Layers[w.low].Params()) == 0 {
		w.low++
	}
	return w
}

// input wraps img in the workspace's input header.
func (w *Workspace) input(img []float64) *tensor.Tensor {
	if len(img) != volume(w.in.Shape) {
		panic(fmt.Sprintf("dnn: image of %d values does not match input shape %v", len(img), w.in.Shape))
	}
	w.in.Data = img
	return &w.in
}

func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Forward runs x through every layer. train enables training behaviour
// (dropout, batch statistics). The result is the workspace's own buffer.
func (w *Workspace) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, s := range w.states {
		x = s.Forward(x, train)
	}
	return x
}

// ForwardCollect runs inference on the workspace and returns the output
// of every layer, in order, appended to outs[:0]. The outputs are the
// workspace's own buffers, overwritten by its next pass, so a loop over
// many inputs (the conversion's activation recording) builds one
// workspace and copies what it keeps.
func (w *Workspace) ForwardCollect(x *tensor.Tensor, outs []*tensor.Tensor) []*tensor.Tensor {
	outs = outs[:0]
	for _, s := range w.states {
		x = s.Forward(x, false)
		outs = append(outs, x)
	}
	return outs
}

// Loss returns the softmax cross-entropy of logits against label and the
// gradient with respect to the logits (CrossEntropyLoss), written into
// the workspace's own buffer.
func (w *Workspace) Loss(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	return crossEntropy(w.grad.Data, logits.Data, label), w.grad
}

// evaluate returns the classification accuracy over samples.
func (w *Workspace) evaluate(samples []dataset.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		logits := w.Forward(w.input(s.Image), false)
		if mathx.ArgMax(logits.Data) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// paramGrader is a layer state that can accumulate its parameter
// gradients without forming its input gradient.
type paramGrader interface {
	backwardParams(grad *tensor.Tensor)
}

// Backward propagates the loss gradient of the last Forward through the
// layers in reverse, down to the lowest layer with parameters. Nothing
// reads the gradient below that layer, so it only accumulates its
// parameter gradients (when its state is a paramGrader) and the layers
// under it are not visited.
func (w *Workspace) Backward(grad *tensor.Tensor) {
	for i := len(w.states) - 1; i > w.low; i-- {
		grad = w.states[i].Backward(grad)
	}
	if w.low == len(w.states) {
		return
	}
	if pg, ok := w.states[w.low].(paramGrader); ok {
		pg.backwardParams(grad)
	} else {
		w.states[w.low].Backward(grad)
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
