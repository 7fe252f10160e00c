package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

func TestNewAndAt(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || a.Dims() != 2 {
		t.Fatalf("unexpected dims: %v", a.Shape)
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	if a.At(0, 0) != 0 {
		t.Fatal("new tensor not zeroed")
	}
}

func TestAtBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FromSlice did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 1)
	if a.At(0, 1) != 99 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 22 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.AxpyInPlace(-1, b)
	if a.Data[1] != 24 {
		t.Fatalf("Axpy: %v", a.Data)
	}
	if a.Sum() != 12+24+36 {
		t.Fatalf("Sum: %v", a.Sum())
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromSlice([]float64{1, -9, 3}, 3)
	if a.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

// product returns A·B for 2-D A and B, through MatMulAdd.
func product(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[1])
	MatMulAdd(c.Data, a.Data, b.Data, a.Shape[0], a.Shape[1], b.Shape[1])
	return c
}

// transposed returns the transpose of a 2-D tensor.
func transposed(a *Tensor) *Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	t := New(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t.Set(a.At(i, j), j, i)
		}
	}
	return t
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := product(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMulAdd = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := mathx.NewRNG(1)
	a := New(4, 4)
	a.RandNorm(r, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := product(a, id)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("A·I != A")
		}
	}
}

// TestMatMulTransA checks Aᵀ·B formed the way the conv backward pass
// forms Wᵀ·g — MatMulAdd over a row-major copy of Aᵀ — against the
// scalar loop that walks A's columns.
func TestMatMulTransA(t *testing.T) {
	r := mathx.NewRNG(3)
	a := New(5, 3) // k×m
	b := New(5, 4) // k×n
	a.RandNorm(r, 0, 1)
	b.RandNorm(r, 0, 1)
	assertBits(t, "Aᵀ·B", product(transposed(a), b), refMatMulTransA(a, b))
}

// TestMatMulTransB checks the conv filter gradient g·colsᵀ on a small
// case: FilterGrad's tap-major result, transposed, against the dot
// products over Im2Col's matrix.
func TestMatMulTransB(t *testing.T) {
	r := mathx.NewRNG(4)
	s := ConvSpec{InC: 2, InH: 4, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	in := New(s.InC, s.InH, s.InW)
	in.RandNorm(r, 0, 1)
	cells := s.OutH() * s.OutW()
	g := New(s.OutC, cells)
	g.RandNorm(r, 0, 1)
	fanIn := s.InC * s.KH * s.KW
	cols := New(fanIn, cells)
	Im2Col(cols.Data, in.Data, s)
	want := product(g, transposed(cols))
	acc := New(fanIn, s.OutC)
	NewConvGradTable(s).FilterGrad(acc.Data, g.Data, in.Data, make([]float64, g.Len()), make([]kernels.Event, in.Len()))
	got := transposed(acc)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("filter gradient %v, want %v", got.Data, want.Data)
		}
	}
}

func TestMatVec(t *testing.T) {
	y := make([]float64, 2)
	MatVec(y, []float64{1, 2, 3, 4}, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MatVec = %v", y)
	}
}

// Property: matmul distributes over addition, (A+B)·C == A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		m, k, n := 3+r.Intn(5), 3+r.Intn(5), 3+r.Intn(5)
		a := New(m, k)
		b := New(m, k)
		c := New(k, n)
		a.RandNorm(r, 0, 1)
		b.RandNorm(r, 0, 1)
		c.RandNorm(r, 0, 1)
		ab := a.Clone()
		ab.AddInPlace(b)
		left := product(ab, c)
		right := product(a, c)
		right.AddInPlace(product(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
