package dnn

import (
	"math"

	"burstsnn/internal/tensor"
)

// Softmax returns the softmax of logits, computed with the max-subtraction
// trick for numerical stability.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmax(out, logits)
	return out
}

// softmax writes the softmax of logits into out.
func softmax(out, logits []float64) {
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// CrossEntropyLoss computes softmax cross-entropy against an integer label
// and returns both the scalar loss and the gradient with respect to the
// logits (softmax(x) - onehot(label)).
func CrossEntropyLoss(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape...)
	return crossEntropy(grad.Data, logits.Data, label), grad
}

// crossEntropy returns CrossEntropyLoss's loss and writes its gradient
// into grad.
func crossEntropy(grad, logits []float64, label int) float64 {
	softmax(grad, logits)
	loss := -math.Log(math.Max(grad[label], 1e-12))
	grad[label] -= 1
	return loss
}
