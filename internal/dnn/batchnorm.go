package dnn

import (
	"fmt"
	"math"

	"burstsnn/internal/tensor"
)

// BatchNorm normalizes a CHW tensor per channel. Because this framework
// trains one sample at a time, training-mode statistics are computed per
// sample over the spatial dimensions (instance statistics) while an
// exponential moving average accumulates the running mean/variance used
// at inference — the affine per-channel form that DNN→SNN conversion
// folds into the preceding convolution (Rueckauer et al. 2017).
//
// BatchNorm is only valid over spatial tensors (it needs H·W > 1 to
// estimate per-sample statistics); Build rejects it after Flatten.
type BatchNorm struct {
	C, H, W  int
	Momentum float64 // EMA coefficient for running stats (default 0.9)
	Eps      float64 // numerical floor for variance (default 1e-5)

	Gamma *Param // per-channel scale
	Beta  *Param // per-channel shift
	// Running statistics used at inference.
	RunMean []float64
	RunVar  []float64
}

// NewBatchNorm creates the layer with γ=1, β=0, running stats at (0,1).
func NewBatchNorm(c, h, w int) *BatchNorm {
	bn := &BatchNorm{
		C: c, H: h, W: w,
		Momentum: 0.9, Eps: 1e-5,
		Gamma:   newParam("bn.gamma", c),
		Beta:    newParam("bn.beta", c),
		RunMean: make([]float64, c),
		RunVar:  make([]float64, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma.W.Data[i] = 1
		bn.RunVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return "batchnorm" }

// Params implements Layer.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// OutShape implements Layer.
func (l *BatchNorm) OutShape() []int { return []int{l.C, l.H, l.W} }

// NewState implements Layer.
func (l *BatchNorm) NewState() State {
	return &batchNormState{l: l,
		out:  tensor.New(l.C, l.H, l.W),
		xHat: make([]float64, l.C*l.H*l.W),
		std:  make([]float64, l.C),
	}
}

// batchNormState is a batch norm's share of a workspace: its output and
// what Backward reads of the forward pass.
type batchNormState struct {
	l       *BatchNorm
	out, dx *tensor.Tensor
	xHat    []float64
	std     []float64 // per channel, sqrt(var+eps)
	train   bool
}

// Forward normalizes x. In training mode it also moves the layer's
// running statistics.
func (s *batchNormState) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l := s.l
	hw := l.H * l.W
	if x.Len() != l.C*hw {
		panic(fmt.Sprintf("dnn: batchnorm expects %d values, got %d", l.C*hw, x.Len()))
	}
	out := s.out.Data
	for c := 0; c < l.C; c++ {
		ch := x.Data[c*hw : (c+1)*hw]
		var mean, variance float64
		if train {
			for _, v := range ch {
				mean += v
			}
			mean /= float64(hw)
			for _, v := range ch {
				d := v - mean
				variance += d * d
			}
			variance /= float64(hw)
			// EMA update of running statistics.
			l.RunMean[c] = l.Momentum*l.RunMean[c] + (1-l.Momentum)*mean
			l.RunVar[c] = l.Momentum*l.RunVar[c] + (1-l.Momentum)*variance
		} else {
			mean, variance = l.RunMean[c], l.RunVar[c]
		}
		std := math.Sqrt(variance + l.Eps)
		s.std[c] = std
		g, b := l.Gamma.W.Data[c], l.Beta.W.Data[c]
		for i, v := range ch {
			xh := (v - mean) / std
			s.xHat[c*hw+i] = xh
			out[c*hw+i] = g*xh + b
		}
	}
	s.train = train
	return s.out
}

// Backward returns the input gradient. In training mode the statistics
// depend on the input, giving the instance-norm gradient per channel
// with N spatial positions:
//
//	dx = γ/std · (dy − mean(dy) − x̂·mean(dy·x̂))
//
// In inference mode the running statistics are constants, so the layer is
// a plain per-channel affine: dx = γ/std · dy.
func (s *batchNormState) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l := s.l
	hw := l.H * l.W
	if s.dx == nil {
		s.dx = tensor.New(l.C, l.H, l.W)
	}
	dx := s.dx.Data
	n := float64(hw)
	for c := 0; c < l.C; c++ {
		gy := grad.Data[c*hw : (c+1)*hw]
		xh := s.xHat[c*hw : (c+1)*hw]
		var sumGy, sumGyXh float64
		for i, g := range gy {
			sumGy += g
			sumGyXh += g * xh[i]
			l.Beta.Grad.Data[c] += g
			l.Gamma.Grad.Data[c] += g * xh[i]
		}
		scale := l.Gamma.W.Data[c] / s.std[c]
		if !s.train {
			for i, g := range gy {
				dx[c*hw+i] = scale * g
			}
			continue
		}
		meanGy, meanGyXh := sumGy/n, sumGyXh/n
		for i, g := range gy {
			dx[c*hw+i] = scale * (g - meanGy - xh[i]*meanGyXh)
		}
	}
	return s.dx
}

// FoldedAffine returns the inference-time per-channel affine (scale,
// shift) such that BN(x) = scale·x + shift. Conversion uses this to fold
// the layer into the preceding convolution's weights and biases.
func (l *BatchNorm) FoldedAffine() (scale, shift []float64) {
	scale = make([]float64, l.C)
	shift = make([]float64, l.C)
	for c := 0; c < l.C; c++ {
		std := math.Sqrt(l.RunVar[c] + l.Eps)
		scale[c] = l.Gamma.W.Data[c] / std
		shift[c] = l.Beta.W.Data[c] - l.Gamma.W.Data[c]*l.RunMean[c]/std
	}
	return scale, shift
}
