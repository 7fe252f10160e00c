package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"burstsnn/internal/kernels"
)

// parallelThreshold is the amount of multiply-accumulate work below which
// MatMul stays single-threaded; goroutine fan-out only pays off for the
// larger convolution matrices.
const parallelThreshold = 1 << 16

// The products run on the simulator's float64 event scatter
// (kernels.ConvScatterEvents64) with a one-tap-per-row table: output
// row i of C = A·B is the accumulator, the entries A[i][p] are the
// events (index p, payload A[i][p]) and B's row p is tap p's weight row.
// The kernel adds B[p][j]·A[i][p] to C[i][j] for each event in order, so
// every output element receives one rounded product and one add per
// term, in ascending p from +0 — the scalar ikj loop's arithmetic bit for
// bit at every dispatch tier (a product's operands commute exactly).

// rowTable is the scatter table of a k×n weight matrix read one row per
// event: tap p is {WOff: p·n, Base: 0} and tapStart[p] = p.
type rowTable struct {
	taps  []kernels.ConvTap
	start []int32
}

// rowTables caches one rowTable per (k, n): a trainer multiplies the
// same few shapes — one per layer and pass — every sample.
var rowTables sync.Map // [2]int{k, n} → *rowTable

func rowTaps(k, n int) *rowTable {
	key := [2]int{k, n}
	if t, ok := rowTables.Load(key); ok {
		return t.(*rowTable)
	}
	if k*n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: %d×%d matrix is too large for the scatter table", k, n))
	}
	t := &rowTable{taps: make([]kernels.ConvTap, k), start: make([]int32, k+1)}
	for p := range t.taps {
		t.taps[p] = kernels.ConvTap{WOff: int32(p * n)}
		t.start[p+1] = int32(p + 1)
	}
	got, _ := rowTables.LoadOrStore(key, t)
	return got.(*rowTable)
}

// mulAdd adds A·B to C for row-major A (m×k), B (k×n) and C (m×n), one
// kernel call per row of C. With skipZero a zero (or −0) A[i][p] adds
// nothing — a dot product that must propagate a NaN or Inf in B passes
// false.
func mulAdd(c, a, b []float64, m, k, n int, skipZero bool) {
	t := rowTaps(k, n)
	ev := make([]kernels.Event, k)
	for i := 0; i < m; i++ {
		e := 0
		for p, av := range a[i*k : (i+1)*k] {
			if skipZero && av == 0 {
				continue
			}
			ev[e] = kernels.Event{Index: p, Payload: av}
			e++
		}
		kernels.ConvScatterEvents64(c[i*n:(i+1)*n], b[:k*n], t.taps, t.start, ev[:e], n)
	}
}

// MatMulAdd adds A·B to C for row-major slices A (m×k), B (k×n) and C
// (m×n), skipping zero entries of A: per element of C, one rounded
// product and one add for each non-zero A[i][p], in ascending p.
func MatMulAdd(c, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: MatMulAdd lengths %d, %d, %d do not match %d×%d·%d×%d",
			len(a), len(b), len(c), m, k, k, n))
	}
	mulAdd(c, a, b, m, k, n, true)
}

// MatMul computes C = A·B for A (m×k) and B (k×n), returning a new m×n
// tensor. It scatters A's non-zero entries row by row (MatMulAdd) and
// splits rows across goroutines for large products.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	work := m * k * n
	if work < parallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		mulAdd(c.Data, a.Data, b.Data, m, k, n, true)
		return c
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulAdd(c.Data[lo*n:hi*n], a.Data[lo*k:hi*k], b.Data, hi-lo, k, n, true)
		}(lo, hi)
	}
	wg.Wait()
	return c
}

// transpose returns the cols×rows transpose of a row-major rows×cols
// matrix.
func transpose(src []float64, rows, cols int) []float64 {
	dst := make([]float64, len(src))
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
	return dst
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n): row i of C
// scatters the non-zero entries of A's column i.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMulTransA inner dim mismatch")
	}
	n := b.Shape[1]
	c := New(m, n)
	mulAdd(c.Data, transpose(a.Data, k, m), b.Data, m, k, n, true)
	return c
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k): C[i][j] is the
// dot product of A's row i and B's row j, which adds every product — a
// zero times a NaN or Inf is NaN, so no entry is skipped. It scatters A's
// rows over the rows of Bᵀ, padded to a multiple of 8 columns so the
// kernel's packed forms take every width (a 3×3×3 conv's 27 included);
// the padding columns of the result are dropped.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k {
		panic("tensor: MatMulTransB inner dim mismatch")
	}
	w := (n + 7) &^ 7
	bt := make([]float64, k*w)
	for j := 0; j < n; j++ {
		for p, v := range b.Data[j*k : (j+1)*k] {
			bt[p*w+j] = v
		}
	}
	cw := make([]float64, m*w)
	mulAdd(cw, a.Data, bt, m, k, w, false)
	if w == n {
		return FromSlice(cw, m, n)
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		copy(c.Data[i*n:(i+1)*n], cw[i*w:])
	}
	return c
}

// MatVec computes y = A·x for A (m×n) and x (n).
func MatVec(a *Tensor, x []float64) []float64 {
	if a.Dims() != 2 {
		panic("tensor: MatVec requires a 2-D matrix")
	}
	m, n := a.Shape[0], a.Shape[1]
	if len(x) != n {
		panic("tensor: MatVec length mismatch")
	}
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
	return y
}
