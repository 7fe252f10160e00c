package dnn

import (
	"fmt"
	"math"
	"testing"

	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

// The convolution layer as it ran on the im2col matrix, as scalar loops:
// the forward product skipped zero weights, the filter gradient was a
// full dot product per entry, and the input gradient scattered Wᵀ·g
// (zero weights skipped) back through the columns.

func refIm2Col(in []float64, s tensor.ConvSpec) [][]float64 {
	outH, outW := s.OutH(), s.OutW()
	cols := make([][]float64, s.InC*s.KH*s.KW)
	for c := 0; c < s.InC; c++ {
		for kh := 0; kh < s.KH; kh++ {
			for kw := 0; kw < s.KW; kw++ {
				row := make([]float64, outH*outW)
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*s.Stride+kh-s.Pad, ox*s.Stride+kw-s.Pad
						if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
							row[oy*outW+ox] = in[(c*s.InH+iy)*s.InW+ix]
						}
					}
				}
				cols[(c*s.KH+kh)*s.KW+kw] = row
			}
		}
	}
	return cols
}

// refConv returns the layer output, and adds the parameter gradients
// into dw and db, returning the input gradient.
func refConv(c *Conv2D, in, g, dw, db []float64) (out, dx []float64) {
	s := c.Spec
	cols := refIm2Col(in, s)
	fanIn, n := len(cols), s.OutH()*s.OutW()
	w := c.Weight.W.Data
	out = make([]float64, s.OutC*n)
	for oc := 0; oc < s.OutC; oc++ {
		o := out[oc*n : (oc+1)*n]
		for p := 0; p < fanIn; p++ {
			if wv := w[oc*fanIn+p]; wv != 0 {
				for j := range o {
					o[j] += wv * cols[p][j]
				}
			}
		}
		for j := range o {
			o[j] += c.Bias.W.Data[oc]
		}
	}
	for oc := 0; oc < s.OutC; oc++ {
		gr := g[oc*n : (oc+1)*n]
		for p := 0; p < fanIn; p++ {
			sum := 0.0
			for j, gv := range gr {
				sum += gv * cols[p][j]
			}
			dw[oc*fanIn+p] += sum
		}
		sum := 0.0
		for _, gv := range gr {
			sum += gv
		}
		db[oc] += sum
	}
	dx = make([]float64, s.InC*s.InH*s.InW)
	for c := 0; c < s.InC; c++ {
		for kh := 0; kh < s.KH; kh++ {
			for kw := 0; kw < s.KW; kw++ {
				p := (c*s.KH+kh)*s.KW + kw
				dcol := make([]float64, n)
				for oc := 0; oc < s.OutC; oc++ {
					if wv := w[oc*fanIn+p]; wv != 0 {
						for j := range dcol {
							dcol[j] += wv * g[oc*n+j]
						}
					}
				}
				for oy := 0; oy < s.OutH(); oy++ {
					for ox := 0; ox < s.OutW(); ox++ {
						iy, ix := oy*s.Stride+kh-s.Pad, ox*s.Stride+kw-s.Pad
						if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
							dx[(c*s.InH+iy)*s.InW+ix] += dcol[oy*s.OutW()+ox]
						}
					}
				}
			}
		}
	}
	return out, dx
}

// mixed fills xs with normals of mixed magnitude, zeros of both signs
// and subnormals.
func mixed(r *mathx.RNG, xs []float64) {
	for i := range xs {
		switch r.Intn(6) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = math.Copysign(0, -1)
		case 2:
			xs[i] = float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
		default:
			xs[i] = r.Norm(0, 1) * math.Pow(10, float64(r.Intn(7)-3))
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#016x), want %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConvGatherMatchesIm2Col runs the convolution layer — the stride-1
// forward on kernels.ConvGather64, the filter gradient on the input-event
// scatter, the others on the column matrix — against the im2col loops it
// replaced, bit for bit, at every kernel dispatch level: output, filter
// and bias gradients (added into non-zero accumulators) and input
// gradient. The geometries take stride 1 and 2, channel counts on and
// off the packed widths (3, 5, 8, 12, 16), and a non-square kernel; the
// operands hold ±0, subnormals and exact zero weights.
func TestConvGatherMatchesIm2Col(t *testing.T) {
	defer kernels.ForceLevel("")
	specs := []tensor.ConvSpec{
		{InC: 3, InH: 16, InW: 16, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 11, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 6, OutC: 5, KH: 2, KW: 2, Stride: 1, Pad: 0},
		{InC: 2, InH: 6, InW: 13, OutC: 12, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 1, InH: 7, InW: 7, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 9, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{InC: 2, InH: 6, InW: 7, OutC: 4, KH: 3, KW: 2, Stride: 1, Pad: 1},
	}
	for _, lv := range kernels.Available() {
		t.Run("level="+lv, func(t *testing.T) {
			if err := kernels.ForceLevel(lv); err != nil {
				t.Fatal(err)
			}
			r := mathx.NewRNG(51)
			for _, s := range specs {
				c := NewConv2D(r, s)
				for i := range c.Weight.W.Data {
					if r.Intn(5) == 0 {
						c.Weight.W.Data[i] = 0
					}
				}
				mixed(r, c.Bias.W.Data)
				st := c.NewState()
				// Two samples through one state: the second must not see
				// the first.
				for sample := 0; sample < 2; sample++ {
					name := fmt.Sprintf("%+v sample %d", s, sample)
					in := tensor.New(s.InC, s.InH, s.InW)
					mixed(r, in.Data)
					g := tensor.New(c.OutShape()...)
					mixed(r, g.Data)
					mixed(r, c.Weight.Grad.Data)
					mixed(r, c.Bias.Grad.Data)
					wantDW := append([]float64(nil), c.Weight.Grad.Data...)
					wantDB := append([]float64(nil), c.Bias.Grad.Data...)
					wantOut, wantDX := refConv(c, in.Data, g.Data, wantDW, wantDB)

					sameBits(t, name+" output", st.Forward(in, true).Data, wantOut)
					dx := st.Backward(g)
					sameBits(t, name+" filter gradient", c.Weight.Grad.Data, wantDW)
					sameBits(t, name+" bias gradient", c.Bias.Grad.Data, wantDB)
					sameBits(t, name+" input gradient", dx.Data, wantDX)
				}
			}
		})
	}
}
