package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"burstsnn/internal/mathx"
)

func TestConvSpecGeometry(t *testing.T) {
	s := ConvSpec{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if s.OutH() != 32 || s.OutW() != 32 {
		t.Fatalf("same-pad 3x3 conv should preserve dims, got %dx%d", s.OutH(), s.OutW())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s2 := ConvSpec{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 2, KW: 2, Stride: 2, Pad: 0}
	if s2.OutH() != 2 || s2.OutW() != 2 {
		t.Fatalf("stride-2 geometry wrong: %dx%d", s2.OutH(), s2.OutW())
	}
}

func TestConvSpecValidateRejectsBad(t *testing.T) {
	bad := []ConvSpec{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid spec %+v", i, s)
		}
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := mathx.NewRNG(10)
	specs := []ConvSpec{
		{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 9, InW: 7, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 6, InW: 6, OutC: 2, KH: 1, KW: 1, Stride: 1, Pad: 0},
	}
	for si, s := range specs {
		in := New(s.InC, s.InH, s.InW)
		in.RandNorm(r, 0, 1)
		w := New(s.OutC, s.InC*s.KH*s.KW)
		w.RandNorm(r, 0, 1)
		bias := make([]float64, s.OutC)
		for i := range bias {
			bias[i] = r.Norm(0, 1)
		}
		got := Conv2D(in, w, bias, s)
		want := Conv2DNaive(in, w, bias, s)
		if !ShapeEq(got.Shape, want.Shape) {
			t.Fatalf("spec %d: shape %v != %v", si, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("spec %d: im2col conv diverges from naive at %d", si, i)
			}
		}
	}
}

func TestConv2DNilBias(t *testing.T) {
	s := ConvSpec{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0}
	in := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	w := New(1, 9)
	w.Fill(1)
	out := Conv2D(in, w, nil, s)
	if out.Data[0] != 45 {
		t.Fatalf("sum kernel = %v, want 45", out.Data[0])
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> ==
// <x, Col2Im(y)> for all x, y. This is the invariant the conv backward
// pass depends on.
func TestIm2ColAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		s := ConvSpec{
			InC: 1 + r.Intn(3), InH: 4 + r.Intn(5), InW: 4 + r.Intn(5),
			OutC: 1, KH: 3, KW: 3, Stride: 1 + r.Intn(2), Pad: r.Intn(2),
		}
		if s.Validate() != nil {
			return true
		}
		x := New(s.InC, s.InH, s.InW)
		x.RandNorm(r, 0, 1)
		cx := New(s.InC*s.KH*s.KW, s.OutH()*s.OutW())
		cx.Fill(math.NaN()) // Im2Col must write every entry
		Im2Col(cx.Data, x.Data, s)
		y := New(cx.Shape[0], cx.Shape[1])
		y.RandNorm(r, 0, 1)
		dot1 := 0.0
		for i := range cx.Data {
			dot1 += cx.Data[i] * y.Data[i]
		}
		back := New(s.InC, s.InH, s.InW)
		back.Fill(math.NaN()) // and Col2Im overwrite its plane
		Col2Im(back.Data, y.Data, s)
		dot2 := 0.0
		for i := range x.Data {
			dot2 += x.Data[i] * back.Data[i]
		}
		return math.Abs(dot1-dot2) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := New(1, 2, 2)
	AvgPool2D(out.Data, in.Data, 1, 4, 4, 2)
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i, v := range want {
		if math.Abs(out.Data[i]-v) > 1e-12 {
			t.Fatalf("AvgPool = %v, want %v", out.Data, want)
		}
	}
}

func TestAvgPoolConservesMean(t *testing.T) {
	r := mathx.NewRNG(20)
	in := New(2, 6, 6)
	in.RandNorm(r, 0, 1)
	out := New(2, 3, 3)
	AvgPool2D(out.Data, in.Data, 2, 6, 6, 2)
	inMean := in.Sum() / float64(in.Len())
	outMean := out.Sum() / float64(out.Len())
	if math.Abs(inMean-outMean) > 1e-12 {
		t.Fatalf("average pooling must conserve the mean: %v vs %v", inMean, outMean)
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, arg := New(1, 2, 2), make([]int, 4)
	MaxPool2D(out.Data, arg, in.Data, 1, 4, 4, 2)
	want := []float64{6, 8, 14, 16}
	wantArg := []int{5, 7, 13, 15}
	for i := range want {
		if out.Data[i] != want[i] || arg[i] != wantArg[i] {
			t.Fatalf("MaxPool = %v args %v", out.Data, arg)
		}
	}
}

func TestMaxPoolDominatesAvgPoolProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		in := New(1, 4, 4)
		in.RandNorm(r, 0, 1)
		mx, av := New(1, 2, 2), New(1, 2, 2)
		MaxPool2D(mx.Data, make([]int, 4), in.Data, 1, 4, 4, 2)
		AvgPool2D(av.Data, in.Data, 1, 4, 4, 2)
		for i := range mx.Data {
			if mx.Data[i] < av.Data[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
