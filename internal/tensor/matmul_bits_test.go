package tensor

import (
	"fmt"
	"math"
	"testing"

	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

// The scalar loops the products ran before they moved onto the float64
// event scatter, copied verbatim: the references the kernel-backed
// products must reproduce bit for bit.

func refMatmulRows(a, b, c []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
	return c
}

// bitsOperand fills a rows×cols matrix with values whose products and
// sums exercise rounding: normals of mixed magnitude, zeros of both
// signs and subnormals.
func bitsOperand(r *mathx.RNG, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		switch r.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		case 2:
			t.Data[i] = float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
		case 3:
			t.Data[i] = r.Norm(0, 1) * 1e-300
		default:
			t.Data[i] = r.Norm(0, 1) * math.Pow(10, float64(r.Intn(9)-4))
		}
	}
	return t
}

// plant sets a few entries of t to v and zeroes, for each, one entry of
// partner that multiplies it in some term (partnerOf returns that
// entry's index), so the products meet v·0 — NaN for a NaN or ±Inf v —
// as well as v times the partner's other, mostly non-zero, entries.
func plant(r *mathx.RNG, t, partner *Tensor, v float64, partnerOf func(idx int) int) {
	for c := 0; c < 1+len(t.Data)/16; c++ {
		idx := r.Intn(len(t.Data))
		t.Data[idx] = v
		partner.Data[partnerOf(idx)] = 0
	}
}

func assertBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !ShapeEq(got.Shape, want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#016x), want %v (%#016x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestMatMulBitIdentical checks the kernel-backed products against the
// scalar loops they replaced, bit for bit, at every kernel dispatch
// level. MatMulAdd forms A·B, and Aᵀ·B over a row-major copy of Aᵀ (the
// conv input gradient Wᵀ·g): row widths n that run the packed kernel
// bodies (64, 72, 256) and the generic loop (1, 3, 10, 27), zeros of both
// signs, subnormals, and NaN and Inf operands each multiplied by a zero,
// which the zero-skipping ikj loops do not propagate. FilterGrad forms
// the conv filter gradient g·colsᵀ, checked against the dot products over
// Im2Col's matrix on stride-1 and stride-2 geometries, with channel
// counts on and off the packed widths and NaN, Inf and ±0 inputs — a dot
// product propagates the NaN and Inf ones, and so does the event scatter.
func TestMatMulBitIdentical(t *testing.T) {
	defer kernels.ForceLevel("")
	for _, lv := range kernels.Available() {
		t.Run("level="+lv, func(t *testing.T) {
			if err := kernels.ForceLevel(lv); err != nil {
				t.Fatal(err)
			}
			r := mathx.NewRNG(47)
			for _, n := range []int{1, 3, 10, 27, 64, 72, 256} {
				for _, m := range []int{1, 8, 16} {
					for _, k := range []int{1, 9, 64} {
						for _, special := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
							name := fmt.Sprintf("m=%d k=%d n=%d special=%v", m, k, n, special)
							checkProducts(t, r, name, m, k, n, special)
						}
					}
				}
			}
			for _, s := range []ConvSpec{
				{InC: 3, InH: 16, InW: 16, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
				{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
				{InC: 2, InH: 7, InW: 9, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 0},
				{InC: 1, InH: 7, InW: 7, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1},
				{InC: 2, InH: 9, InW: 6, OutC: 12, KH: 2, KW: 3, Stride: 2, Pad: 0},
			} {
				for _, special := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
					checkFilterGrad(t, r, s, special)
				}
			}
		})
	}
}

// checkProducts compares the two products on fresh operands, with a
// non-zero special planted in the right operand.
func checkProducts(t *testing.T, r *mathx.RNG, name string, m, k, n int, special float64) {
	t.Helper()
	// C = A·B, A m×k, B k×n: B[p][j] meets A[i][p].
	a, b := bitsOperand(r, m, k), bitsOperand(r, k, n)
	if special != 0 {
		plant(r, b, a, special, func(idx int) int { return r.Intn(m)*k + idx/n })
	}
	want := New(m, n)
	refMatmulRows(a.Data, b.Data, want.Data, 0, m, k, n)
	got := New(m, n)
	MatMulAdd(got.Data, a.Data, b.Data, m, k, n)
	assertBits(t, name+" MatMulAdd", got, want)

	// C = Aᵀ·B, A k×m, B k×n: B[p][j] meets A[p][i].
	a, b = bitsOperand(r, k, m), bitsOperand(r, k, n)
	if special != 0 {
		plant(r, b, a, special, func(idx int) int { return idx/n*m + r.Intn(m) })
	}
	got = New(m, n)
	MatMulAdd(got.Data, transposed(a).Data, b.Data, m, k, n)
	assertBits(t, name+" Aᵀ·B", got, refMatMulTransA(a, b))
}

// checkFilterGrad compares FilterGrad with the dot products g·colsᵀ on a
// fresh input holding a planted special and a finite gradient. Its
// buffers start as NaN: FilterGrad must write every entry.
func checkFilterGrad(t *testing.T, r *mathx.RNG, s ConvSpec, special float64) {
	t.Helper()
	cells := s.OutH() * s.OutW()
	fanIn := s.InC * s.KH * s.KW
	in := bitsOperand(r, s.InC, s.InH*s.InW)
	if special != 0 {
		for c := 0; c < 1+in.Len()/16; c++ {
			in.Data[r.Intn(in.Len())] = special
		}
	}
	g := bitsOperand(r, s.OutC, cells)
	cols := New(fanIn, cells)
	Im2Col(cols.Data, in.Data, s)
	want := refMatMulTransB(g, cols)

	acc := New(fanIn, s.OutC)
	gT := make([]float64, g.Len())
	for _, buf := range [][]float64{acc.Data, gT} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	NewConvGradTable(s).FilterGrad(acc.Data, g.Data, in.Data, gT, make([]kernels.Event, in.Len()))
	assertBits(t, fmt.Sprintf("FilterGrad %+v special=%v", s, special), transposed(acc), want)
}

// TestMatMulEmptyDims multiplies through zero-sized dimensions: an empty
// inner dimension gives a zero matrix, an empty outer one an empty
// result, as the scalar loops did.
func TestMatMulEmptyDims(t *testing.T) {
	for _, d := range [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}} {
		m, k, n := d[0], d[1], d[2]
		got := New(m, n)
		MatMulAdd(got.Data, New(m, k).Data, New(k, n).Data, m, k, n)
		assertBits(t, fmt.Sprint("MatMulAdd ", d), got, New(m, n))
	}
}
