// Package tensor implements the dense numerical substrate used by both the
// DNN trainer and the spiking simulator: an n-dimensional float64 tensor
// with the matrix and convolution kernels the repository needs.
//
// The package deliberately stays small rather than general: row-major
// storage, explicit shapes, and a handful of fused kernels (im2col, the
// conv filter gradient, matrix products, pooling) that dominate training
// time. Each kernel writes into buffers its caller owns, so a trainer
// runs sample after sample on one set of buffers; only Conv2D and
// Conv2DNaive, references that tests compare against, return new tensors.
package tensor

import (
	"fmt"

	"burstsnn/internal/mathx"
)

// Tensor is a dense row-major n-dimensional array of float64.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %v", shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape sharing the same backing data.
// The volume must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + v
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandNorm fills the tensor with N(mean, std) samples from r.
func (t *Tensor) RandNorm(r *mathx.RNG, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = r.Norm(mean, std)
	}
}

// AddInPlace accumulates o into t elementwise. Shapes must have equal
// volume.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by k.
func (t *Tensor) Scale(k float64) {
	for i := range t.Data {
		t.Data[i] *= k
	}
}

// AxpyInPlace computes t += k*o elementwise.
func (t *Tensor) AxpyInPlace(k float64, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AxpyInPlace size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += k * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
