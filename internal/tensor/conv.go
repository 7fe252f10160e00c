package tensor

import (
	"fmt"
	"math"

	"burstsnn/internal/kernels"
)

// ConvSpec describes a 2-D convolution or pooling geometry over CHW
// tensors. Only square strides/padding are supported because that is all
// the model zoo uses.
type ConvSpec struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels (ignored by pooling)
	KH, KW        int // kernel height and width
	Stride        int
	Pad           int
}

// OutH returns the output height for the spec.
func (s ConvSpec) OutH() int { return (s.InH+2*s.Pad-s.KH)/s.Stride + 1 }

// OutW returns the output width for the spec.
func (s ConvSpec) OutW() int { return (s.InW+2*s.Pad-s.KW)/s.Stride + 1 }

// Validate checks that the geometry is internally consistent.
func (s ConvSpec) Validate() error {
	if s.InC <= 0 || s.InH <= 0 || s.InW <= 0 {
		return fmt.Errorf("tensor: invalid input dims %dx%dx%d", s.InC, s.InH, s.InW)
	}
	if s.KH <= 0 || s.KW <= 0 || s.Stride <= 0 || s.Pad < 0 {
		return fmt.Errorf("tensor: invalid kernel %dx%d stride %d pad %d", s.KH, s.KW, s.Stride, s.Pad)
	}
	if s.OutH() <= 0 || s.OutW() <= 0 {
		return fmt.Errorf("tensor: empty output for spec %+v", s)
	}
	return nil
}

// Im2Col writes the (InC·KH·KW) × (OutH·OutW) column matrix of the CHW
// input in into dst, so convolution becomes one matrix product. Row p =
// (ic·KH+kh)·KW+kw holds tap p's input under every output cell; padding
// samples are zero.
func Im2Col(dst, in []float64, s ConvSpec) {
	outH, outW := s.OutH(), s.OutW()
	cols := outH * outW
	if len(dst) != s.InC*s.KH*s.KW*cols || len(in) != s.InC*s.InH*s.InW {
		panic(fmt.Sprintf("tensor: Im2Col buffers of %d and %d values do not match %+v", len(dst), len(in), s))
	}
	clear(dst)
	for c := 0; c < s.InC; c++ {
		chanBase := c * s.InH * s.InW
		for kh := 0; kh < s.KH; kh++ {
			for kw := 0; kw < s.KW; kw++ {
				row := (c*s.KH+kh)*s.KW + kw
				dst := dst[row*cols : (row+1)*cols]
				for oy := 0; oy < outH; oy++ {
					iy := oy*s.Stride + kh - s.Pad
					if iy < 0 || iy >= s.InH {
						continue
					}
					srcRow := chanBase + iy*s.InW
					dstRow := oy * outW
					for ox := 0; ox < outW; ox++ {
						ix := ox*s.Stride + kw - s.Pad
						if ix < 0 || ix >= s.InW {
							continue
						}
						dst[dstRow+ox] = in[srcRow+ix]
					}
				}
			}
		}
	}
}

// Col2Im overwrites the CHW plane dst with the adjoint of Im2Col applied
// to the column matrix cols: each input cell sums, from +0, the entries
// that Im2Col copied it to, in ascending row order. The convolution
// backward pass uses it to form the input gradient.
func Col2Im(dst, cols []float64, s ConvSpec) {
	outH, outW := s.OutH(), s.OutW()
	nCols := outH * outW
	if len(dst) != s.InC*s.InH*s.InW || len(cols) != s.InC*s.KH*s.KW*nCols {
		panic(fmt.Sprintf("tensor: Col2Im buffers of %d and %d values do not match %+v", len(dst), len(cols), s))
	}
	clear(dst)
	for c := 0; c < s.InC; c++ {
		chanBase := c * s.InH * s.InW
		for kh := 0; kh < s.KH; kh++ {
			for kw := 0; kw < s.KW; kw++ {
				row := (c*s.KH+kh)*s.KW + kw
				src := cols[row*nCols : (row+1)*nCols]
				lo, hi := inside(kw-s.Pad, s.Stride, s.InW, outW)
				if lo >= hi {
					continue
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy*s.Stride + kh - s.Pad
					if iy < 0 || iy >= s.InH {
						continue
					}
					in := dst[chanBase+iy*s.InW:]
					seg := src[oy*outW+lo : oy*outW+hi]
					ix := lo*s.Stride + kw - s.Pad
					if s.Stride == 1 {
						in = in[ix : ix+len(seg)]
						for i, v := range seg {
							in[i] += v
						}
						continue
					}
					for _, v := range seg {
						in[ix] += v
						ix += s.Stride
					}
				}
			}
		}
	}
}

// inside returns the output columns [lo, hi) of a tap at offset off
// whose input column ox·stride+off falls inside an input row of width
// inW, for a map of outW columns.
func inside(off, stride, inW, outW int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	hi = min(outW, (inW-off+stride-1)/stride)
	return lo, max(lo, hi)
}

// ConvGradTable is a convolution's input-event scatter table, built once
// per geometry: input cell q's taps are the (tap p, output cell j) pairs
// its value meets in the column matrix — cols[p][j] = in[q] — as
// {WOff: j·OutC, Base: p}, one per p. FilterGrad forms the filter
// gradient through it without the column matrix.
type ConvGradTable struct {
	spec  ConvSpec
	taps  []kernels.ConvTap
	start []int32
}

// NewConvGradTable builds the table of geometry s.
func NewConvGradTable(s ConvSpec) *ConvGradTable {
	outH, outW := s.OutH(), s.OutW()
	t := &ConvGradTable{spec: s, start: make([]int32, 1, s.InC*s.InH*s.InW+1)}
	if s.InC*s.KH*s.KW*outH*outW*s.OutC > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: %+v is too large for the scatter table", s))
	}
	for c := 0; c < s.InC; c++ {
		for iy := 0; iy < s.InH; iy++ {
			for ix := 0; ix < s.InW; ix++ {
				for kh := 0; kh < s.KH; kh++ {
					ny := iy + s.Pad - kh
					if ny < 0 || ny%s.Stride != 0 || ny/s.Stride >= outH {
						continue
					}
					for kw := 0; kw < s.KW; kw++ {
						nx := ix + s.Pad - kw
						if nx < 0 || nx%s.Stride != 0 || nx/s.Stride >= outW {
							continue
						}
						j := ny/s.Stride*outW + nx/s.Stride
						t.taps = append(t.taps, kernels.ConvTap{
							WOff: int32(j * s.OutC),
							Base: int32((c*s.KH+kh)*s.KW + kw),
						})
					}
				}
				t.start = append(t.start, int32(len(t.taps)))
			}
		}
	}
	return t
}

// FilterGrad writes one sample's filter gradient, tap-major, into acc:
//
//	acc[p·OutC+oc] = Σ_j g[oc·OutH·OutW+j] · cols[p][j]   (j ascending, from +0)
//
// with cols the column matrix Im2Col makes of in, which it never forms:
// gT receives g transposed (cell-major, OutC per cell) and ev the
// input's non-zero cells as events, in ascending order, which
// kernels.ConvScatterEvents64 scatters through the table. Each sum thus
// adds one rounded product per term in ascending j, the dot product's
// arithmetic, except that a zero input's terms are left out: they are
// ±0, and adding ±0 leaves a sum from +0 unchanged (such a sum is never
// −0), for every finite g — a NaN or infinite g would have made them
// NaN. ev must hold one event per input cell.
func (t *ConvGradTable) FilterGrad(acc, g, in, gT []float64, ev []kernels.Event) {
	s := t.spec
	cells := s.OutH() * s.OutW()
	fanIn := s.InC * s.KH * s.KW
	if len(acc) != fanIn*s.OutC || len(g) != s.OutC*cells || len(gT) != len(g) || len(in) != len(t.start)-1 {
		panic(fmt.Sprintf("tensor: FilterGrad buffers of %d, %d, %d and %d values do not match %+v",
			len(acc), len(g), len(gT), len(in), s))
	}
	for oc := 0; oc < s.OutC; oc++ {
		for j, v := range g[oc*cells : (oc+1)*cells] {
			gT[j*s.OutC+oc] = v
		}
	}
	e := 0
	for q, x := range in {
		if x != 0 {
			ev[e] = kernels.Event{Index: q, Payload: x}
			e++
		}
	}
	clear(acc)
	kernels.ConvScatterEvents64(acc, gT, t.taps, t.start, ev[:e], s.OutC)
}

// Conv2D applies kernel weights w (OutC × InC*KH*KW) plus per-channel
// bias to a CHW input, returning an OutC×OutH×OutW tensor: the im2col
// product, with the trainer's arithmetic. The simulator's reference tests
// check their event-driven convolution against it.
func Conv2D(in *Tensor, w *Tensor, bias []float64, s ConvSpec) *Tensor {
	outH, outW := s.OutH(), s.OutW()
	fanIn := s.InC * s.KH * s.KW
	cols := make([]float64, fanIn*outH*outW)
	Im2Col(cols, in.Data, s)
	out := New(s.OutC, outH, outW)
	MatMulAdd(out.Data, w.Data, cols, s.OutC, fanIn, outH*outW)
	if bias != nil {
		for oc := 0; oc < s.OutC; oc++ {
			b := bias[oc]
			row := out.Data[oc*outH*outW : (oc+1)*outH*outW]
			for i := range row {
				row[i] += b
			}
		}
	}
	return out
}

// Conv2DNaive is a direct-loop reference implementation used only by tests
// to validate the im2col path.
func Conv2DNaive(in *Tensor, w *Tensor, bias []float64, s ConvSpec) *Tensor {
	outH, outW := s.OutH(), s.OutW()
	out := New(s.OutC, outH, outW)
	for oc := 0; oc < s.OutC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := 0.0
				if bias != nil {
					sum = bias[oc]
				}
				for ic := 0; ic < s.InC; ic++ {
					for kh := 0; kh < s.KH; kh++ {
						iy := oy*s.Stride + kh - s.Pad
						if iy < 0 || iy >= s.InH {
							continue
						}
						for kw := 0; kw < s.KW; kw++ {
							ix := ox*s.Stride + kw - s.Pad
							if ix < 0 || ix >= s.InW {
								continue
							}
							wIdx := ((oc*s.InC+ic)*s.KH+kh)*s.KW + kw
							sum += w.Data[wIdx] * in.Data[(ic*s.InH+iy)*s.InW+ix]
						}
					}
				}
				out.Data[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}

// AvgPool2D writes the non-overlapping average pooling (stride ==
// window) of the CHW input in (c×h×w) into dst (c×h/window×w/window).
func AvgPool2D(dst, in []float64, c, h, w, window int) {
	outH, outW := h/window, w/window
	if len(dst) != c*outH*outW || len(in) != c*h*w {
		panic(fmt.Sprintf("tensor: AvgPool2D buffers of %d and %d values do not match %d×%d×%d / %d",
			len(dst), len(in), c, h, w, window))
	}
	inv := 1.0 / float64(window*window)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := 0.0
				for ky := 0; ky < window; ky++ {
					row := (ch*h + oy*window + ky) * w
					for kx := 0; kx < window; kx++ {
						sum += in[row+ox*window+kx]
					}
				}
				dst[(ch*outH+oy)*outW+ox] = sum * inv
			}
		}
	}
}

// MaxPool2D writes the non-overlapping max pooling of the CHW input in
// into dst, and into arg the flat input index of each window maximum
// (for backprop routing).
func MaxPool2D(dst []float64, arg []int, in []float64, c, h, w, window int) {
	outH, outW := h/window, w/window
	if len(dst) != c*outH*outW || len(arg) != len(dst) || len(in) != c*h*w {
		panic(fmt.Sprintf("tensor: MaxPool2D buffers of %d, %d and %d values do not match %d×%d×%d / %d",
			len(dst), len(arg), len(in), c, h, w, window))
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < window; ky++ {
					row := (ch*h + oy*window + ky) * w
					for kx := 0; kx < window; kx++ {
						idx := row + ox*window + kx
						if best == -1 || in[idx] > bestV {
							best, bestV = idx, in[idx]
						}
					}
				}
				o := (ch*outH+oy)*outW + ox
				dst[o] = bestV
				arg[o] = best
			}
		}
	}
}
