package tensor

import (
	"fmt"
	"math"
	"sync"

	"burstsnn/internal/kernels"
)

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
// same few shapes — one per layer and pass — every sample. A plain map
// under a lock, because a lookup must not allocate (an [2]int key
// boxed for a sync.Map would).
var rowTables struct {
	sync.RWMutex
	m map[[2]int]*rowTable
}

func rowTaps(k, n int) *rowTable {
	key := [2]int{k, n}
	rowTables.RLock()
	t := rowTables.m[key]
	rowTables.RUnlock()
	if t != nil {
		return t
	}
	if k*n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: %d×%d matrix is too large for the scatter table", k, n))
	}
	t = &rowTable{taps: make([]kernels.ConvTap, k), start: make([]int32, k+1)}
	for p := range t.taps {
		t.taps[p] = kernels.ConvTap{WOff: int32(p * n)}
		t.start[p+1] = int32(p + 1)
	}
	rowTables.Lock()
	defer rowTables.Unlock()
	if got := rowTables.m[key]; got != nil {
		return got
	}
	if rowTables.m == nil {
		rowTables.m = map[[2]int]*rowTable{}
	}
	rowTables.m[key] = t
	return t
}

// stackEvents is how many events a product lists on the stack; a longer
// inner dimension allocates its list.
const stackEvents = 64

// MatMulAdd adds A·B to C for row-major slices A (m×k), B (k×n) and C
// (m×n), skipping zero entries of A: per element of C, one rounded
// product and one add for each non-zero A[i][p], in ascending p. For an
// inner dimension of at most 64 it allocates nothing.
func MatMulAdd(c, a, b []float64, m, k, n int) {
	if len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: MatMulAdd lengths %d, %d, %d do not match %d×%d·%d×%d",
			len(a), len(b), len(c), m, k, k, n))
	}
	t := rowTaps(k, n)
	var stack [stackEvents]kernels.Event
	ev := stack[:]
	if k > len(ev) {
		ev = make([]kernels.Event, k)
	}
	for i := 0; i < m; i++ {
		e := 0
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			ev[e] = kernels.Event{Index: p, Payload: av}
			e++
		}
		kernels.ConvScatterEvents64(c[i*n:(i+1)*n], b, t.taps, t.start, ev[:e], n)
	}
}

// MatVec writes y = A·x for row-major A (len(y)×len(x)): each y[i] is
// summed from +0 over every column in ascending order. Four rows run
// side by side, so four independent sums are in flight rather than one
// chain of dependent adds; each row's own order is unchanged.
func MatVec(y, a, x []float64) {
	n := len(x)
	if len(a) != len(y)*n {
		panic(fmt.Sprintf("tensor: MatVec matrix of %d values is not %d×%d", len(a), len(y), n))
	}
	i := 0
	for ; i+4 <= len(y); i += 4 {
		r0 := a[i*n : (i+1)*n]
		r1 := a[(i+1)*n : (i+2)*n]
		r2 := a[(i+2)*n : (i+3)*n]
		r3 := a[(i+3)*n : (i+4)*n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < len(y); i++ {
		row := a[i*n : (i+1)*n]
		s := 0.0
		for j, v := range x {
			s += row[j] * v
		}
		y[i] = s
	}
}
