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

// TestMatMulBitIdentical checks MatMul, MatMulTransA and MatMulTransB
// against the scalar loops they replaced, bit for bit, at every kernel
// dispatch level: row widths n that run the packed kernel bodies (64,
// 72, 256) and the generic loop (1, 3, 10, 27, which MatMulTransB pads
// to a packed width), zeros of both signs, subnormals, and NaN and Inf
// operands each multiplied by a zero — a dot product propagates them,
// the zero-skipping ikj loops do not.
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
		})
	}
}

// checkProducts compares the three products on fresh operands. A
// non-zero special is planted in the right operand of MatMul and
// MatMulTransA, and in either operand of MatMulTransB.
func checkProducts(t *testing.T, r *mathx.RNG, name string, m, k, n int, special float64) {
	t.Helper()
	// C = A·B, A m×k, B k×n: B[p][j] meets A[i][p].
	a, b := bitsOperand(r, m, k), bitsOperand(r, k, n)
	if special != 0 {
		plant(r, b, a, special, func(idx int) int { return r.Intn(m)*k + idx/n })
	}
	want := New(m, n)
	refMatmulRows(a.Data, b.Data, want.Data, 0, m, k, n)
	assertBits(t, name+" MatMul", MatMul(a, b), want)

	// C = Aᵀ·B, A k×m, B k×n: B[p][j] meets A[p][i].
	a, b = bitsOperand(r, k, m), bitsOperand(r, k, n)
	if special != 0 {
		plant(r, b, a, special, func(idx int) int { return idx/n*m + r.Intn(m) })
	}
	assertBits(t, name+" MatMulTransA", MatMulTransA(a, b), refMatMulTransA(a, b))

	// C = A·Bᵀ, A m×k, B n×k: A[i][p] meets B[j][p].
	for _, left := range []bool{true, false} {
		a, b = bitsOperand(r, m, k), bitsOperand(r, n, k)
		if special != 0 {
			if left {
				plant(r, a, b, special, func(idx int) int { return r.Intn(n)*k + idx%k })
			} else {
				plant(r, b, a, special, func(idx int) int { return r.Intn(m)*k + idx%k })
			}
		}
		assertBits(t, fmt.Sprintf("%s MatMulTransB (special on the left: %v)", name, left),
			MatMulTransB(a, b), refMatMulTransB(a, b))
	}
}

// TestMatMulEmptyDims multiplies through zero-sized dimensions: an empty
// inner dimension gives a zero matrix, an empty outer one an empty
// result, as the scalar loops did.
func TestMatMulEmptyDims(t *testing.T) {
	for _, d := range [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}} {
		m, k, n := d[0], d[1], d[2]
		want := New(m, n)
		assertBits(t, fmt.Sprint("MatMul ", d), MatMul(New(m, k), New(k, n)), want)
		assertBits(t, fmt.Sprint("MatMulTransA ", d), MatMulTransA(New(k, m), New(k, n)), want)
		assertBits(t, fmt.Sprint("MatMulTransB ", d), MatMulTransB(New(m, k), New(n, k)), want)
	}
}
