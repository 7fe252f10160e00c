package kernels

import (
	"math"
	"testing"

	"burstsnn/internal/mathx"
)

// The reference implementations below are deliberately naive scalar
// loops — no unrolling, no hoisting beyond the single wp product (which
// the contract requires: the multiply is rounded once, then added). The
// fuzz tests drive the exported kernels against them at random shapes,
// requiring bit-exact float32 agreement, and forEachLevel repeats every
// fuzz under every dispatch tier this machine can run (purego, avx2,
// avx512), so each tier is pinned to the same scalar reference — and
// therefore to every other tier — on every commit. CI additionally runs
// the package under the purego build and under forced KERNELS_LEVEL
// tiers.

// forEachLevel runs fn once per available dispatch tier, forcing the
// tier for the duration and restoring the detected level afterwards.
func forEachLevel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, lv := range Available() {
		t.Run("level="+lv, func(t *testing.T) {
			if err := ForceLevel(lv); err != nil {
				t.Fatal(err)
			}
			defer ForceLevel("")
			if got := ActiveLevel(); got != lv {
				t.Fatalf("ActiveLevel() = %q after ForceLevel(%q)", got, lv)
			}
			fn(t)
		})
	}
}

func refAxpyBlock(dst, row []float32, p float32, b, lanes int) {
	for i, w := range row {
		wp := w * p
		for j := 0; j < lanes; j++ {
			dst[i*b+j] += wp
		}
	}
}

func refScaleAdd(dst []float32, x float32) {
	for i := range dst {
		dst[i] += x
	}
}

func refFireRow(v []float32, th float32) uint64 {
	var m uint64
	for s := range v {
		if v[s] >= th {
			v[s] -= th
			m |= 1 << uint(s)
		}
	}
	return m
}

func refFireRowBias(v []float32, bias, th float32) uint64 {
	var m uint64
	for s := range v {
		v[s] += bias
		if v[s] >= th {
			v[s] -= th
			m |= 1 << uint(s)
		}
	}
	return m
}

func randF32s(r *mathx.RNG, n int, scale float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.Norm(0, scale))
	}
	return v
}

func TestAxpyBlockFuzz(t *testing.T) { forEachLevel(t, testAxpyBlockFuzz) }

func testAxpyBlockFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA1B0)
	for round := 0; round < 500; round++ {
		b := 1 + r.Intn(70)
		lanes := 1 + r.Intn(b)
		n := r.Intn(33)
		row := randF32s(r, n, 0.5)
		size := 1
		if n > 0 {
			size = (n-1)*b + lanes
		}
		dst := randF32s(r, size, 1)
		want := append([]float32(nil), dst...)
		p := float32(r.Norm(0, 1))

		AxpyBlock(dst, row, p, b, lanes)
		refAxpyBlock(want, row, p, b, lanes)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d (b=%d lanes=%d n=%d): dst[%d] = %v, want %v",
					round, b, lanes, n, i, dst[i], want[i])
			}
		}
	}
}

func refAxpyBlockVec(dst, row, pv []float32, b, lanes int) {
	for i, w := range row {
		for j := 0; j < lanes; j++ {
			wp := w * pv[j]
			dst[i*b+j] += wp
		}
	}
}

func TestAxpyBlockVecFuzz(t *testing.T) { forEachLevel(t, testAxpyBlockVecFuzz) }

func testAxpyBlockVecFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA1B2)
	for round := 0; round < 500; round++ {
		b := 1 + r.Intn(70)
		lanes := 1 + r.Intn(b)
		n := r.Intn(33)
		row := randF32s(r, n, 0.5)
		pv := randF32s(r, b, 1)
		for i := range pv {
			if r.Intn(3) == 0 {
				pv[i] = 0 // absent lanes are zero-filled in real use
			}
		}
		size := 1
		if n > 0 {
			size = (n-1)*b + lanes
		}
		dst := randF32s(r, size, 1)
		want := append([]float32(nil), dst...)

		AxpyBlockVec(dst, row, pv, b, lanes)
		refAxpyBlockVec(want, row, pv, b, lanes)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d (b=%d lanes=%d n=%d): dst[%d] = %v, want %v",
					round, b, lanes, n, i, dst[i], want[i])
			}
		}
	}
}

func TestAxpyLaneFuzz(t *testing.T) { forEachLevel(t, testAxpyLaneFuzz) }

func testAxpyLaneFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA1B1)
	for round := 0; round < 200; round++ {
		b := 1 + r.Intn(32)
		lane := r.Intn(b)
		n := 1 + r.Intn(40)
		row := randF32s(r, n, 0.5)
		dst := randF32s(r, n*b, 1)
		want := append([]float32(nil), dst...)
		p := float32(r.Norm(0, 1))

		AxpyLane(dst, row, p, b, lane)
		for i, w := range row {
			wp := w * p
			want[lane+i*b] += wp
		}
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d: dst[%d] = %v, want %v", round, i, dst[i], want[i])
			}
		}
	}
}

func TestScaleAddFuzz(t *testing.T) { forEachLevel(t, testScaleAddFuzz) }

func testScaleAddFuzz(t *testing.T) {
	r := mathx.NewRNG(0x5CA1)
	for round := 0; round < 300; round++ {
		dst := randF32s(r, r.Intn(130), 1)
		want := append([]float32(nil), dst...)
		x := float32(r.Norm(0, 1))
		ScaleAdd(dst, x)
		refScaleAdd(want, x)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d: dst[%d] = %v, want %v", round, i, dst[i], want[i])
			}
		}
	}
}

// fireCase fuzzes one fire kernel against its reference, including
// exact-threshold lanes (v == th must fire and reset to exactly 0).
func fireCase(t *testing.T, round int, r *mathx.RNG, bias bool) {
	t.Helper()
	n := 1 + r.Intn(64)
	th := float32(0.125 * math.Pow(2, float64(r.Intn(6))))
	v := make([]float32, n)
	for i := range v {
		switch r.Intn(5) {
		case 0:
			v[i] = th // exact threshold: must fire
		case 1:
			v[i] = th * float32(r.Norm(1, 1e-6)) // near-threshold
		default:
			v[i] = float32(r.Norm(0, float64(th)*2))
		}
	}
	want := append([]float32(nil), v...)
	var got, ref uint64
	if bias {
		bv := float32(r.Norm(0, 0.1))
		got = FireRowBias(v, bv, th)
		ref = refFireRowBias(want, bv, th)
	} else {
		got = FireRow(v, th)
		ref = refFireRow(want, th)
	}
	if got != ref {
		t.Fatalf("round %d (bias=%v n=%d th=%v): mask %064b, want %064b", round, bias, n, th, got, ref)
	}
	for i := range want {
		if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
			t.Fatalf("round %d (bias=%v): v[%d] = %v, want %v", round, bias, i, v[i], want[i])
		}
	}
}

func TestFireRowFuzz(t *testing.T) { forEachLevel(t, testFireRowFuzz) }

func testFireRowFuzz(t *testing.T) {
	r := mathx.NewRNG(0xF12E)
	for round := 0; round < 500; round++ {
		fireCase(t, round, r, false)
		fireCase(t, round, r, true)
	}
}

func refFireRowBurst(v, g, pay []float32, fired []uint32, bias, beta, vth float32) uint64 {
	var m uint64
	for s := range v {
		v[s] += bias
		gv := float32(1)
		if fired[s] != 0 {
			gv = beta * g[s]
		}
		g[s] = gv
		th := gv * vth
		pay[s] = th
		if v[s] >= th {
			v[s] -= th
			fired[s] = ^uint32(0)
			m |= 1 << uint(s)
		} else {
			fired[s] = 0
		}
	}
	return m
}

func TestFireRowBurstFuzz(t *testing.T) { forEachLevel(t, testFireRowBurstFuzz) }

func testFireRowBurstFuzz(t *testing.T) {
	r := mathx.NewRNG(0xB125)
	for round := 0; round < 600; round++ {
		n := 1 + r.Intn(64)
		beta := float32(2)
		vth := float32(0.125)
		bias := float32(r.Norm(0, 0.05))
		v := make([]float32, n)
		g := make([]float32, n)
		fired := make([]uint32, n)
		for i := range v {
			v[i] = float32(r.Norm(0, 0.5))
			g[i] = float32(math.Pow(2, float64(r.Intn(6)))) // burst ladder states
			if r.Bernoulli(0.5) {
				fired[i] = ^uint32(0)
			}
			if r.Intn(5) == 0 {
				// Exact threshold: must fire and reset to exactly 0.
				gv := g[i]
				if fired[i] == 0 {
					gv = 1
				} else {
					gv = beta * g[i]
				}
				v[i] = gv*vth - bias
			}
		}
		pay := make([]float32, n)
		wantV := append([]float32(nil), v...)
		wantG := append([]float32(nil), g...)
		wantF := append([]uint32(nil), fired...)
		wantP := make([]float32, n)

		got := FireRowBurst(v, g, pay, fired, bias, beta, vth)
		want := refFireRowBurst(wantV, wantG, wantP, wantF, bias, beta, vth)
		if got != want {
			t.Fatalf("round %d (n=%d): mask %064b, want %064b", round, n, got, want)
		}
		for i := range wantV {
			if math.Float32bits(v[i]) != math.Float32bits(wantV[i]) ||
				math.Float32bits(g[i]) != math.Float32bits(wantG[i]) ||
				math.Float32bits(pay[i]) != math.Float32bits(wantP[i]) ||
				fired[i] != wantF[i] {
				t.Fatalf("round %d lane %d: v %v/%v g %v/%v pay %v/%v fired %x/%x",
					round, i, v[i], wantV[i], g[i], wantG[i], pay[i], wantP[i], fired[i], wantF[i])
			}
		}
	}
}

func TestConvScatterVecFuzz(t *testing.T) { forEachLevel(t, testConvScatterVecFuzz) }

func testConvScatterVecFuzz(t *testing.T) {
	r := mathx.NewRNG(0xC05C)
	for round := 0; round < 400; round++ {
		b := 1 + r.Intn(12)
		if r.Bernoulli(0.5) {
			b = 8 // exercise the packed fast path half the time
		}
		outC := 1 + r.Intn(9)
		nBases := 1 + r.Intn(6)
		wscLen := outC * (1 + r.Intn(5))
		wsc := randF32s(r, wscLen, 0.5)
		taps := make([]ConvTap, r.Intn(9))
		for i := range taps {
			taps[i] = ConvTap{
				WOff: int32(r.Intn(wscLen-outC+1) / outC * outC),
				Base: int32(r.Intn(nBases)),
			}
		}
		vmem := randF32s(r, nBases*outC*b, 1)
		pv := randF32s(r, b, 1)
		for i := range pv {
			if r.Intn(3) == 0 {
				pv[i] = 0
			}
		}
		want := append([]float32(nil), vmem...)
		// Reference: the per-tap AxpyBlockVec contract, naive scalar form.
		for _, tp := range taps {
			for i := 0; i < outC; i++ {
				w := wsc[int(tp.WOff)+i]
				for j := 0; j < b; j++ {
					wp := w * pv[j]
					want[int(tp.Base)*outC*b+i*b+j] += wp
				}
			}
		}
		ConvScatterVec(vmem, wsc, taps, outC, b, pv)
		for i := range want {
			if math.Float32bits(vmem[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d (b=%d outC=%d taps=%d): vmem[%d] = %v, want %v",
					round, b, outC, len(taps), i, vmem[i], want[i])
			}
		}
	}
}

func TestFireRowsBurstFuzz(t *testing.T) { forEachLevel(t, testFireRowsBurstFuzz) }

func testFireRowsBurstFuzz(t *testing.T) {
	r := mathx.NewRNG(0xF805)
	for round := 0; round < 300; round++ {
		b := 1 + r.Intn(12)
		if r.Bernoulli(0.5) {
			b = 8
		}
		n := 1 + r.Intn(150) // cross occ-word boundaries regularly
		beta := float32(2)
		vth := float32(0.125)
		bsc := float32(r.Norm(1, 0.2))
		var bias []float32
		if r.Bernoulli(0.7) {
			bias = randF32s(r, n, 0.05)
		}
		v := randF32s(r, n*b, 0.25)
		g := make([]float32, n*b)
		fired := make([]uint32, n*b)
		for i := range g {
			g[i] = float32(math.Pow(2, float64(r.Intn(5))))
			if r.Bernoulli(0.5) {
				fired[i] = ^uint32(0)
			}
		}
		pay := make([]float32, n*b)
		masks := make([]uint64, n)
		occ := make([]uint64, (n+63)/64)

		wantV := append([]float32(nil), v...)
		wantG := append([]float32(nil), g...)
		wantF := append([]uint32(nil), fired...)
		wantP := make([]float32, n*b)
		wantM := make([]uint64, n)
		wantOcc := make([]uint64, len(occ))
		for c := 0; c < n; c++ {
			var bv float32
			if bias != nil {
				bv = bias[c] * bsc
			}
			o := c * b
			wantM[c] = refFireRowBurst(wantV[o:o+b], wantG[o:o+b], wantP[o:o+b], wantF[o:o+b], bv, beta, vth)
			if wantM[c] != 0 {
				wantOcc[c>>6] |= 1 << (uint(c) & 63)
			}
		}

		FireRowsBurst(v, g, pay, fired, masks, occ, n, b, bias, bsc, beta, vth)
		for c := 0; c < n; c++ {
			if masks[c] != wantM[c] {
				t.Fatalf("round %d (n=%d b=%d): masks[%d] %064b, want %064b", round, n, b, c, masks[c], wantM[c])
			}
		}
		for w := range occ {
			if occ[w] != wantOcc[w] {
				t.Fatalf("round %d (n=%d b=%d): occ[%d] %064b, want %064b", round, n, b, w, occ[w], wantOcc[w])
			}
		}
		for i := range wantV {
			if math.Float32bits(v[i]) != math.Float32bits(wantV[i]) ||
				math.Float32bits(g[i]) != math.Float32bits(wantG[i]) ||
				math.Float32bits(pay[i]) != math.Float32bits(wantP[i]) ||
				fired[i] != wantF[i] {
				t.Fatalf("round %d (n=%d b=%d) elem %d: v %v/%v g %v/%v pay %v/%v fired %x/%x",
					round, n, b, i, v[i], wantV[i], g[i], wantG[i], pay[i], wantP[i], fired[i], wantF[i])
			}
		}
	}
}

func refSelectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	for s := 0; s < lanes; s++ {
		if row[s] > best[s] {
			best[s] = row[s]
			idx[s] = o
		}
	}
}

func TestSelectMaxRowFuzz(t *testing.T) { forEachLevel(t, testSelectMaxRowFuzz) }

func testSelectMaxRowFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA26A)
	for round := 0; round < 400; round++ {
		lanes := 1 + r.Intn(64)
		best := randF32s(r, lanes, 1)
		row := randF32s(r, lanes, 1)
		for i := range row {
			if r.Intn(4) == 0 {
				row[i] = best[i] // exact ties must NOT replace (first wins)
			}
		}
		idx := make([]int32, lanes)
		for i := range idx {
			idx[i] = int32(r.Intn(10))
		}
		o := int32(r.Intn(100))
		wantBest := append([]float32(nil), best...)
		wantIdx := append([]int32(nil), idx...)

		SelectMaxRow(best, row, idx, o, lanes)
		refSelectMaxRow(wantBest, row, wantIdx, o, lanes)
		for s := 0; s < lanes; s++ {
			if math.Float32bits(best[s]) != math.Float32bits(wantBest[s]) || idx[s] != wantIdx[s] {
				t.Fatalf("round %d lane %d (lanes=%d o=%d): best %v/%v idx %d/%d",
					round, s, lanes, o, best[s], wantBest[s], idx[s], wantIdx[s])
			}
		}
	}
}

func TestLaneMaskFuzz(t *testing.T) { forEachLevel(t, testLaneMaskFuzz) }

func testLaneMaskFuzz(t *testing.T) {
	r := mathx.NewRNG(0x1A5E)
	for round := 0; round < 400; round++ {
		n := 1 + r.Intn(64)
		row := make([]uint64, n)
		for i := range row {
			row[i] = uint64(r.Intn(1 << 16))
			if r.Bernoulli(0.3) {
				row[i] = uint64(r.Intn(8)) // dense small values for the eq sweep
			}
		}
		shift := uint(r.Intn(64))
		want := uint64(r.Intn(8))

		var refBit, refEq uint64
		for s, bv := range row {
			if bv>>shift&1 == 1 {
				refBit |= 1 << uint(s)
			}
			if bv == want {
				refEq |= 1 << uint(s)
			}
		}
		if got := LaneMaskBit(row, shift); got != refBit {
			t.Fatalf("round %d (n=%d shift=%d): LaneMaskBit %064b, want %064b", round, n, shift, got, refBit)
		}
		if got := LaneMaskEq(row, want); got != refEq {
			t.Fatalf("round %d (n=%d want=%d): LaneMaskEq %064b, want %064b", round, n, want, got, refEq)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	AxpyBlock(nil, nil, 1, 4, 2)
	AxpyBlock([]float32{1}, []float32{1}, 1, 4, 0)
	AxpyBlockVec(nil, nil, nil, 4, 2)
	AxpyBlockVec([]float32{1}, []float32{1}, []float32{1}, 4, 0)
	ScaleAdd(nil, 1)
	if FireRow(nil, 1) != 0 || FireRowBias(nil, 1, 1) != 0 {
		t.Fatal("empty fire rows must return empty masks")
	}
	SelectMaxRow(nil, nil, nil, 3, 0)
	if LaneMaskBit(nil, 5) != 0 || LaneMaskEq(nil, 1) != 0 {
		t.Fatal("empty lane sweeps must return empty masks")
	}
	ConvScatter64(nil, nil, nil, 4, 1)
	ConvScatter64([]float64{1}, []float64{1}, []ConvTap{{}}, 0, 1)
	ConvScatterEvents64(nil, nil, nil, nil, nil, 4)
	ConvScatterEvents64([]float64{1}, []float64{1}, []ConvTap{{}}, []int32{0, 1}, []Event{{}}, 0)
	ConvScatterEvents64([]float64{1}, []float64{1}, nil, []int32{0, 0}, []Event{{}}, 4) // an event with no taps
	if FireCells64(nil, nil, nil, 1, 1) != 0 || FireCellsBurst64(nil, nil, nil, nil, 1, 2, 1) != 0 {
		t.Fatal("empty fire sweeps must emit no events")
	}
}

func BenchmarkAxpyBlock(b *testing.B) {
	const outC, lanes = 4, 8
	dst := make([]float32, outC*lanes)
	row := make([]float32, outC)
	for i := range row {
		row[i] = float32(i) * 0.25
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AxpyBlock(dst, row, 0.5, lanes, lanes)
	}
}

func BenchmarkFireRow(b *testing.B) {
	v := make([]float32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range v {
			v[j] = float32(j) * 0.3
		}
		FireRow(v, 1)
	}
}

// The float64 primitives' references spell the pre-ladder engine's
// arithmetic out cell by cell, and the fuzzers compare bits — the f64
// contract is bit-identity with that arithmetic on every tier, not a
// tolerance.

func randF64s(r *mathx.RNG, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm(0, scale)
	}
	return v
}

func sameBits64(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// fuzzOutCs are the channel counts the f64 fuzzers draw from: packed
// (4, 8, 12, 16) and generic-only (1, 3, 5) widths.
var fuzzOutCs = []int{1, 3, 4, 5, 8, 12, 16}

func refConvScatter64(vmem, wsc []float64, taps []ConvTap, outC int, p float64) {
	for _, tp := range taps {
		for i := 0; i < outC; i++ {
			wp := wsc[int(tp.WOff)+i] * p
			vmem[int(tp.Base)*outC+i] += wp
		}
	}
}

func TestConvScatter64Fuzz(t *testing.T) { forEachLevel(t, testConvScatter64Fuzz) }

func testConvScatter64Fuzz(t *testing.T) {
	r := mathx.NewRNG(0xC064)
	for round := 0; round < 600; round++ {
		outC := fuzzOutCs[r.Intn(len(fuzzOutCs))]
		nBases := 1 + r.Intn(9)
		wscLen := outC * (1 + r.Intn(9))
		wsc := randF64s(r, wscLen, 0.5)
		// An event's taps address distinct bases; the empty list is
		// drawn too (an input pixel no kernel window covers).
		taps := make([]ConvTap, 0, nBases)
		for _, base := range r.Perm(nBases)[:r.Intn(nBases+1)] {
			taps = append(taps, ConvTap{
				WOff: int32(r.Intn(wscLen/outC) * outC),
				Base: int32(base),
			})
		}
		p := r.Norm(0, 1)
		switch r.Intn(5) {
		case 0:
			p = 0
		case 1:
			p = -p * p
		}
		vmem := randF64s(r, nBases*outC, 1)
		want := append([]float64(nil), vmem...)
		refConvScatter64(want, wsc, taps, outC, p)
		ConvScatter64(vmem, wsc, taps, outC, p)
		if i := sameBits64(vmem, want); i >= 0 {
			t.Fatalf("round %d (outC=%d taps=%d p=%v): vmem[%d] = %v, want %v",
				round, outC, len(taps), p, i, vmem[i], want[i])
		}
	}
}

// refConvScatterEvents64 is the per-step scatter as the scalar
// reference applied event by event.
func refConvScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	for _, ev := range events {
		refConvScatter64(vmem, wsc, taps[tapStart[ev.Index]:tapStart[ev.Index+1]], outC, ev.Payload)
	}
}

func TestConvScatterEvents64Fuzz(t *testing.T) { forEachLevel(t, testConvScatterEvents64Fuzz) }

func testConvScatterEvents64Fuzz(t *testing.T) {
	// 24, 32 and 64 join the shared widths: multiples of 8 with no
	// unrolled body, which run the packed counted loop on avx2 and avx512
	// (12 runs it on avx2 and is too narrow for avx512's form).
	widths := append([]int{24, 32, 64}, fuzzOutCs...)
	r := mathx.NewRNG(0xE764)
	for round := 0; round < 600; round++ {
		outC := widths[r.Intn(len(widths))]
		nBases, nIn := 1+r.Intn(9), 1+r.Intn(12)
		var taps []ConvTap
		var wsc []float64
		tapStart := make([]int32, nIn+1)
		if r.Bernoulli(0.25) {
			// A dense layer's table: one tap per input, its own weight row,
			// every input feeding the single base.
			nBases = 1
			wsc = randF64s(r, nIn*outC, 0.5)
			for in := 0; in < nIn; in++ {
				taps = append(taps, ConvTap{WOff: int32(in * outC)})
				tapStart[in+1] = int32(in + 1)
			}
		} else {
			wscLen := outC * (1 + r.Intn(9))
			wsc = randF64s(r, wscLen, 0.5)
			// A scatter table over nIn inputs: each input's taps address
			// distinct bases, and some inputs have none (a stride-2
			// geometry leaves pixels no kernel window covers).
			for in := 0; in < nIn; in++ {
				if !r.Bernoulli(0.25) {
					for _, base := range r.Perm(nBases)[:r.Intn(nBases+1)] {
						taps = append(taps, ConvTap{
							WOff: int32(r.Intn(wscLen/outC) * outC),
							Base: int32(base),
						})
					}
				}
				tapStart[in+1] = int32(len(taps))
			}
		}
		// Events repeat indices (nothing in the kernel may assume they do
		// not); the empty list is drawn too.
		events := make([]Event, r.Intn(20))
		for i := range events {
			p := r.Norm(0, 1)
			switch r.Intn(5) {
			case 0:
				p = 0
			case 1:
				p = -p * p
			}
			events[i] = Event{Index: r.Intn(nIn), Payload: p}
		}
		vmem := randF64s(r, nBases*outC, 1)
		want := append([]float64(nil), vmem...)
		refConvScatterEvents64(want, wsc, taps, tapStart, events, outC)
		perEvent := append([]float64(nil), vmem...)
		for _, ev := range events {
			ConvScatter64(perEvent, wsc, taps[tapStart[ev.Index]:tapStart[ev.Index+1]], outC, ev.Payload)
		}
		ConvScatterEvents64(vmem, wsc, taps, tapStart, events, outC)
		if i := sameBits64(vmem, want); i >= 0 {
			t.Fatalf("round %d (outC=%d events=%d): vmem[%d] = %v, reference %v",
				round, outC, len(events), i, vmem[i], want[i])
		}
		if i := sameBits64(vmem, perEvent); i >= 0 {
			t.Fatalf("round %d (outC=%d events=%d): vmem[%d] = %v, per-event ConvScatter64 %v",
				round, outC, len(events), i, vmem[i], perEvent[i])
		}

		// An event outside the table panics and leaves vmem as it was,
		// however many good events precede it.
		if len(events) > 0 {
			bad := append([]Event(nil), events...)
			bad[len(bad)-1].Index = []int{nIn, -1, nIn + 7}[round%3]
			before := append([]float64(nil), vmem...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("round %d: event index %d outside %d inputs did not panic", round, bad[len(bad)-1].Index, nIn)
					}
				}()
				ConvScatterEvents64(vmem, wsc, taps, tapStart, bad, outC)
			}()
			if i := sameBits64(vmem, before); i >= 0 {
				t.Fatalf("round %d: rejected event list wrote vmem[%d]", round, i)
			}
		}
	}
}

// fireCase64 is one random fire-sweep input: n cells whose bias has
// period outC (nil for a bias-free population).
type fireCase64 struct {
	v, h, bias     []float64
	bsc, beta, vth float64
}

func randFireCase64(r *mathx.RNG) fireCase64 {
	outC := fuzzOutCs[r.Intn(len(fuzzOutCs))]
	// n crosses mask words; a third of the cases end mid-period, so the
	// packed form hands a biased sub-group tail to the scalar loop.
	n := outC * (1 + r.Intn(40))
	if r.Intn(3) == 0 {
		n += r.Intn(outC)
	}
	if r.Bernoulli(0.2) {
		outC = n // a dense layer: one bias per cell, any tail length
	}
	c := fireCase64{
		v:    randF64s(r, n, 0.25),
		h:    make([]float64, n),
		bsc:  r.Norm(1, 0.2),
		beta: []float64{2, 1.5, 3}[r.Intn(3)],
		vth:  0.125,
	}
	for i := range c.h {
		c.h[i] = math.Pow(c.beta, float64(r.Intn(4)))
	}
	if r.Bernoulli(0.7) {
		c.bias = randF64s(r, outC, 0.05)
	}
	// Membranes no finite current produces: NaN never fires, +Inf always
	// does and stays +Inf, −Inf never does.
	for i := range c.v {
		switch r.Intn(50) {
		case 0:
			c.v[i] = math.NaN()
		case 1:
			c.v[i] = math.Inf(1)
		case 2:
			c.v[i] = math.Inf(-1)
		}
	}
	return c
}

// fireTies sets a sixth of v's cells to exactly their threshold, so the
// compare's equal case fires; a biased sweep moves the membrane first, so
// ties are planted only in bias-free cases.
func fireTies(r *mathx.RNG, v []float64, bias []float64, th func(i int) float64) {
	if bias != nil {
		return
	}
	for i := range v {
		if r.Intn(6) == 0 {
			v[i] = th(i)
		}
	}
}

// checkEvents compares a sweep's events with the fired cells' expected
// ones, payload bits included, and checks the sweep wrote nothing past
// len(v) — the guard slots behind ev[:n] must keep their sentinel.
func checkEvents(t *testing.T, round int, name string, ev []Event, k, n int, want []Event) {
	t.Helper()
	if k != len(want) {
		t.Fatalf("round %d %s (n=%d): %d events, want %d", round, name, n, k, len(want))
	}
	for i, w := range want {
		if ev[i].Index != w.Index || math.Float64bits(ev[i].Payload) != math.Float64bits(w.Payload) {
			t.Fatalf("round %d %s (n=%d): event %d = %+v, want %+v", round, name, n, i, ev[i], w)
		}
	}
	for i := n; i < len(ev); i++ {
		if ev[i] != fireGuard {
			t.Fatalf("round %d %s (n=%d): the sweep wrote slot %d past the population", round, name, n, i)
		}
	}
}

var fireGuard = Event{Index: -7, Payload: -7}

// guardedEvents returns an n-slot event buffer followed by 8 guard slots.
func guardedEvents(n int) []Event {
	ev := make([]Event, n+8)
	for i := range ev {
		ev[i] = fireGuard
	}
	return ev
}

// TestFireCells64Fuzz drives both fire→events sweeps against the
// pre-ladder loops: tails past the last 8- and 4-cell group, bias
// periods that do and do not allow a packed form, NaN and ±Inf
// membranes, and exact threshold ties.
func TestFireCells64Fuzz(t *testing.T) { forEachLevel(t, testFireCells64Fuzz) }

func testFireCells64Fuzz(t *testing.T) {
	r := mathx.NewRNG(0xF164)
	for round := 0; round < 400; round++ {
		c := randFireCase64(r)
		n := len(c.v)

		// Constant threshold: the pre-ladder rate/phase/TTFS loop.
		th := 0.125 * math.Pow(2, float64(r.Intn(4)))
		in := append([]float64(nil), c.v...)
		fireTies(r, in, c.bias, func(int) float64 { return th })
		want := append([]float64(nil), in...)
		var wantEv []Event
		for i := range want {
			x := want[i]
			if c.bias != nil {
				x += c.bias[i%len(c.bias)] * c.bsc
			}
			if x >= th {
				x -= th
				wantEv = append(wantEv, Event{Index: i, Payload: th})
			}
			want[i] = x
		}
		v := append([]float64(nil), in...)
		ev := guardedEvents(n)
		k := FireCells64(v, ev[:n], c.bias, c.bsc, th)
		if i := sameBits64(v, want); i >= 0 {
			t.Fatalf("round %d (n=%d period=%d): v[%d] = %v, want %v", round, n, len(c.bias), i, v[i], want[i])
		}
		checkEvents(t, round, "constant", ev, k, n, wantEv)

		// Burst: the pre-ladder Eq. 8/9 loop, unfolded (g, firedPrev)
		// state mapped onto the folded h the kernel keeps.
		in = append(in[:0], c.v...)
		fireTies(r, in, c.bias, func(i int) float64 { return c.h[i] * c.vth })
		wantV := append([]float64(nil), in...)
		wantH := append([]float64(nil), c.h...)
		wantEv = wantEv[:0]
		for i := range wantV {
			x := wantV[i]
			if c.bias != nil {
				x += c.bias[i%len(c.bias)] * c.bsc
			}
			g := wantH[i]
			bth := g * c.vth
			if x >= bth {
				x -= bth
				wantH[i] = c.beta * g
				wantEv = append(wantEv, Event{Index: i, Payload: bth})
			} else {
				wantH[i] = 1
			}
			wantV[i] = x
		}
		v = append(v[:0], in...)
		h := append([]float64(nil), c.h...)
		ev = guardedEvents(n)
		k = FireCellsBurst64(v, h, ev[:n], c.bias, c.bsc, c.beta, c.vth)
		if i := sameBits64(v, wantV); i >= 0 {
			t.Fatalf("round %d burst (n=%d period=%d): v[%d] = %v, want %v", round, n, len(c.bias), i, v[i], wantV[i])
		}
		if i := sameBits64(h, wantH); i >= 0 {
			t.Fatalf("round %d burst (n=%d): h[%d] = %v, want %v", round, n, i, h[i], wantH[i])
		}
		checkEvents(t, round, "burst", ev, k, n, wantEv)
	}
}

// refConvGather64 is ConvGather64 as its definition reads: per output
// cell, every tap in ascending (ic, kh, kw) order, one rounded product and
// one add each.
func refConvGather64(v, plane, wsc []float64, inC, k, ph, pw int) {
	outH, outW := ph-k+1, pw-k+1
	outC := len(v) / (outH * outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				cell := (oc*outH+oy)*outW + ox
				for ic := 0; ic < inC; ic++ {
					for kh := 0; kh < k; kh++ {
						for kw := 0; kw < k; kw++ {
							wp := wsc[((ic*k+kh)*k+kw)*outC+oc] * plane[(ic*ph+oy+kh)*pw+ox+kw]
							v[cell] += wp
						}
					}
				}
			}
		}
	}
}

// TestConvGather64Fuzz pins the gather to its definition at kernel sizes
// 1, 3 and 5, every padding up to K/2, output widths on both sides of
// every packed group, and planes that, like a step's, are mostly silent
// zeros inside a zero border.
func TestConvGather64Fuzz(t *testing.T) { forEachLevel(t, testConvGather64Fuzz) }

func testConvGather64Fuzz(t *testing.T) {
	r := mathx.NewRNG(0x6A7E)
	for round := 0; round < 300; round++ {
		k := []int{1, 3, 5}[r.Intn(3)]
		pad := r.Intn(k/2 + 1)
		inC, outC := 1+r.Intn(3), fuzzOutCs[r.Intn(len(fuzzOutCs))]
		inH := max(1, k-2*pad) + r.Intn(5)
		inW := max(1, k-2*pad) + r.Intn(20)
		ph, pw := inH+2*pad, inW+2*pad
		wsc := randF64s(r, inC*k*k*outC, 0.5)
		for i := range wsc {
			if r.Intn(8) == 0 {
				wsc[i] = 0
			}
		}
		plane := make([]float64, inC*ph*pw)
		for ic := 0; ic < inC; ic++ {
			for iy := 0; iy < inH; iy++ {
				for ix := 0; ix < inW; ix++ {
					if r.Bernoulli(0.5) {
						plane[(ic*ph+iy+pad)*pw+ix+pad] = r.Norm(0, 1)
					}
				}
			}
		}
		v := randF64s(r, outC*(ph-k+1)*(pw-k+1), 1)
		want := append([]float64(nil), v...)
		refConvGather64(want, plane, wsc, inC, k, ph, pw)
		ConvGather64(v, plane, wsc, inC, k, ph, pw)
		if i := sameBits64(v, want); i >= 0 {
			t.Fatalf("round %d (k=%d pad=%d inC=%d outC=%d %dx%d): v[%d] = %v, want %v",
				round, k, pad, inC, outC, inH, inW, i, v[i], want[i])
		}
	}
}
