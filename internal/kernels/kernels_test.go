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
		// Reference: one rounded product and one add per element, naive scalar form.
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

// The seven fuzzers below keep the names of the fuzzers of float32
// kernels that were deleted with the lockstep plane (AxpyBlockVec,
// AxpyLane, ScaleAdd, FireRow/FireRowBias, the single-row FireRowBurst,
// SelectMaxRow, LaneMaskBit/LaneMaskEq). Each pins the same contract
// where it now lives: a special case of a kept kernel, or, for
// SelectMaxRow, the readout's argmax.

func refAxpyBlockVec(dst, row, pv []float32, b, lanes int) {
	for i, w := range row {
		for j := 0; j < lanes; j++ {
			wp := w * pv[j]
			dst[i*b+j] += wp
		}
	}
}

// TestAxpyBlockVecFuzz: a per-lane payload vector scattered through one
// row is ConvScatterVec with a single tap at base 0 (over all b lanes).
func TestAxpyBlockVecFuzz(t *testing.T) { forEachLevel(t, testAxpyBlockVecFuzz) }

func testAxpyBlockVecFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA1B2)
	for round := 0; round < 500; round++ {
		b := 1 + r.Intn(70)
		n := 1 + r.Intn(33)
		row := randF32s(r, n, 0.5)
		pv := randF32s(r, b, 1)
		for i := range pv {
			if r.Intn(3) == 0 {
				pv[i] = 0 // absent lanes are zero-filled in real use
			}
		}
		dst := randF32s(r, n*b, 1)
		want := append([]float32(nil), dst...)

		ConvScatterVec(dst, row, []ConvTap{{}}, n, b, pv)
		refAxpyBlockVec(want, row, pv, b, b)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d (b=%d n=%d): dst[%d] = %v, want %v",
					round, b, n, i, dst[i], want[i])
			}
		}
	}
}

// TestAxpyLaneFuzz: one lane's scatter, dst[lane+i·b] += row[i]·p, is
// AxpyBlock with one active lane on the block starting at that lane.
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

		AxpyBlock(dst[lane:], row, p, b, 1)
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

// TestScaleAddFuzz: adding x to every element is AxpyBlock's one-row
// case with a unit weight over a stripe of len(dst) lanes, which walks
// the unrolled stripe loop and its tail at every length up to 129.
func TestScaleAddFuzz(t *testing.T) { forEachLevel(t, testScaleAddFuzz) }

func testScaleAddFuzz(t *testing.T) {
	r := mathx.NewRNG(0x5CA1)
	for round := 0; round < 300; round++ {
		dst := randF32s(r, r.Intn(130), 1)
		want := append([]float32(nil), dst...)
		x := float32(r.Norm(0, 1))
		AxpyBlock(dst, []float32{1}, x, len(dst), len(dst))
		for i := range want {
			want[i] += x
		}
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d: dst[%d] = %v, want %v", round, i, dst[i], want[i])
			}
		}
	}
}

func refFireRow(v []float32, bias, th float32) uint64 {
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

// fireCase fuzzes the plain (rate-coding) fire rule on one row — reset
// by subtracting a fixed threshold — including exact-threshold lanes
// (v == th must fire and reset to exactly 0). FireRowsBurst with β = 1
// and every g at 1 is that rule: the threshold never grows, and the
// payload is the threshold.
func fireCase(t *testing.T, round int, r *mathx.RNG, withBias bool) {
	t.Helper()
	n := 1 + r.Intn(64)
	th := float32(0.125 * math.Pow(2, float64(r.Intn(6))))
	v := make([]float32, n)
	g := make([]float32, n)
	fired := make([]uint32, n)
	for i := range v {
		switch r.Intn(5) {
		case 0:
			v[i] = th // exact threshold: must fire
		case 1:
			v[i] = th * float32(r.Norm(1, 1e-6)) // near-threshold
		default:
			v[i] = float32(r.Norm(0, float64(th)*2))
		}
		g[i] = 1
		if r.Bernoulli(0.5) {
			fired[i] = ^uint32(0)
		}
	}
	want := append([]float32(nil), v...)
	var bias []float32
	var bv float32
	if withBias {
		bv = float32(r.Norm(0, 0.1))
		bias = []float32{bv}
	}
	pay := make([]float32, n)
	masks := make([]uint64, 1)
	occ := make([]uint64, 1)
	FireRowsBurst(v, g, pay, fired, masks, occ, 1, n, bias, 1, 1, th)
	ref := refFireRow(want, bv, th)
	if masks[0] != ref {
		t.Fatalf("round %d (bias=%v n=%d th=%v): mask %064b, want %064b", round, withBias, n, th, masks[0], ref)
	}
	for i := range want {
		if math.Float32bits(v[i]) != math.Float32bits(want[i]) || g[i] != 1 || pay[i] != th {
			t.Fatalf("round %d (bias=%v): lane %d v %v/%v g %v pay %v (th %v)",
				round, withBias, i, v[i], want[i], g[i], pay[i], th)
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

// TestFireRowBurstFuzz pins the burst fire rule on a single row, with
// exact-threshold lanes at every burst-ladder state: FireRowsBurst with
// n = 1 and a unit bias scale.
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
		masks := make([]uint64, 1)
		occ := make([]uint64, 1)
		wantV := append([]float32(nil), v...)
		wantG := append([]float32(nil), g...)
		wantF := append([]uint32(nil), fired...)
		wantP := make([]float32, n)

		FireRowsBurst(v, g, pay, fired, masks, occ, 1, n, []float32{bias}, 1, beta, vth)
		want := refFireRowBurst(wantV, wantG, wantP, wantF, bias, beta, vth)
		if masks[0] != want {
			t.Fatalf("round %d (n=%d): mask %064b, want %064b", round, n, masks[0], want)
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

func refSelectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	for s := 0; s < lanes; s++ {
		if row[s] > best[s] {
			best[s] = row[s]
			idx[s] = o
		}
	}
}

// TestSelectMaxRowFuzz pins the readout's prediction rule, which the
// sequential engine applies through mathx.ArgMax: per lane, a running
// maximum over the class rows in order, replaced only by a strictly
// larger value, so exact ties keep the earliest class.
func TestSelectMaxRowFuzz(t *testing.T) { forEachLevel(t, testSelectMaxRowFuzz) }

func testSelectMaxRowFuzz(t *testing.T) {
	r := mathx.NewRNG(0xA26A)
	for round := 0; round < 400; round++ {
		lanes := 1 + r.Intn(64)
		classes := 1 + r.Intn(12)
		rows := make([][]float32, classes)
		for o := range rows {
			rows[o] = randF32s(r, lanes, 1)
			for s := range rows[o] {
				if o > 0 && r.Intn(4) == 0 {
					rows[o][s] = rows[r.Intn(o)][s] // exact ties must NOT replace (first wins)
				}
			}
		}
		best := append([]float32(nil), rows[0]...)
		idx := make([]int32, lanes)
		for o := 1; o < classes; o++ {
			refSelectMaxRow(best, rows[o], idx, int32(o), lanes)
		}
		col := make([]float64, classes)
		for s := 0; s < lanes; s++ {
			for o := range rows {
				col[o] = float64(rows[o][s])
			}
			if got := mathx.ArgMax(col); got != int(idx[s]) {
				t.Fatalf("round %d lane %d (classes=%d): ArgMax %d, running max %d over %v",
					round, s, classes, got, idx[s], col)
			}
		}
	}
}

// TestLaneMaskFuzz pins the lane masks FireRowsBurst emits against the
// two lane sweeps over the fired words it writes: bit s of masks[c] is
// set iff lane s's word equals all-ones (the equality sweep) and iff
// any one of its bits is set (the single-bit sweep, at a random shift),
// and occ summarizes exactly the non-zero masks.
func TestLaneMaskFuzz(t *testing.T) { forEachLevel(t, testLaneMaskFuzz) }

func testLaneMaskFuzz(t *testing.T) {
	r := mathx.NewRNG(0x1A5E)
	for round := 0; round < 400; round++ {
		b := 1 + r.Intn(64)
		n := 1 + r.Intn(70)
		v := randF32s(r, n*b, 0.25)
		g := make([]float32, n*b)
		fired := make([]uint32, n*b)
		for i := range g {
			g[i] = float32(math.Pow(2, float64(r.Intn(4))))
			if r.Bernoulli(0.5) {
				fired[i] = ^uint32(0)
			}
		}
		pay := make([]float32, n*b)
		masks := make([]uint64, n)
		occ := make([]uint64, (n+63)/64)
		FireRowsBurst(v, g, pay, fired, masks, occ, n, b, nil, 1, 2, 0.125)

		shift := uint(r.Intn(32))
		wantOcc := make([]uint64, len(occ))
		for c := 0; c < n; c++ {
			var refBit, refEq uint64
			for s, w := range fired[c*b : c*b+b] {
				if w>>shift&1 == 1 {
					refBit |= 1 << uint(s)
				}
				if w == ^uint32(0) {
					refEq |= 1 << uint(s)
				}
			}
			if masks[c] != refBit || masks[c] != refEq {
				t.Fatalf("round %d (n=%d b=%d) row %d: mask %064b, bit sweep (shift %d) %064b, eq sweep %064b",
					round, n, b, c, masks[c], shift, refBit, refEq)
			}
			if refEq != 0 {
				wantOcc[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		for w := range occ {
			if occ[w] != wantOcc[w] {
				t.Fatalf("round %d (n=%d b=%d): occ[%d] %064b, want %064b", round, n, b, w, occ[w], wantOcc[w])
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	AxpyBlock(nil, nil, 1, 4, 2)
	AxpyBlock([]float32{1}, []float32{1}, 1, 4, 0)
	ConvScatterVec(nil, nil, nil, 4, 2, nil)
	FireRowsBurst(nil, nil, nil, nil, nil, nil, 0, 8, nil, 1, 2, 1)
	ConvScatterEvents64(nil, nil, nil, nil, nil, 4)
	ConvScatterEvents64(nil, nil, nil, []int32{0, 0}, []Event{{Payload: 1}}, 4) // one event, no taps, no buffers
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

// TestConvScatter64Fuzz checks ConvScatterEvents64's one-event case —
// a one-row table holding the whole tap list — against the scalar
// reference.
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
		ConvScatterEvents64(vmem, wsc, taps, []int32{0, int32(len(taps))}, []Event{{Payload: p}}, outC)
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
			evTaps := taps[tapStart[ev.Index]:tapStart[ev.Index+1]]
			ConvScatterEvents64(perEvent, wsc, evTaps, []int32{0, int32(len(evTaps))}, []Event{{Payload: ev.Payload}}, outC)
		}
		ConvScatterEvents64(vmem, wsc, taps, tapStart, events, outC)
		if i := sameBits64(vmem, want); i >= 0 {
			t.Fatalf("round %d (outC=%d events=%d): vmem[%d] = %v, reference %v",
				round, outC, len(events), i, vmem[i], want[i])
		}
		if i := sameBits64(vmem, perEvent); i >= 0 {
			t.Fatalf("round %d (outC=%d events=%d): vmem[%d] = %v, one event at a time %v",
				round, outC, len(events), i, vmem[i], perEvent[i])
		}

		// An event outside the table panics and leaves vmem as it was,
		// however many good events precede it and wherever it sits in a
		// packed check's group of 4.
		if len(events) > 0 {
			bad := append([]Event(nil), events...)
			at := len(bad) - 1 - round/3%min(len(bad), 5)
			bad[at].Index = []int{nIn, -1, nIn + 7}[round%3]
			before := append([]float64(nil), vmem...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("round %d: event index %d outside %d inputs did not panic", round, bad[at].Index, nIn)
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

// TestConvMaskGather64Fuzz pins the masked gather to the plane gather it
// replaces — ConvGather64 over a plane holding the step's one payload at
// every firing input, then the fire sweep's bias·bsc — at kernel sizes
// 1, 3 and 5, every padding up to K/2, the packed channel counts and
// their neighbours, row widths on both sides of every 8-column chunk up
// to the 64-column limit, ±0 weights, and payloads of 0, subnormal and
// huge (overflowing) size; membranes start at +0 or a nonzero value,
// never −0.
func TestConvMaskGather64Fuzz(t *testing.T) { forEachLevel(t, testConvMaskGather64Fuzz) }

func testConvMaskGather64Fuzz(t *testing.T) {
	r := mathx.NewRNG(0x3A5C)
	for round := 0; round < 400; round++ {
		k := []int{1, 3, 5}[r.Intn(3)]
		pad := r.Intn(k/2 + 1)
		inC, outC := 1+r.Intn(3), []int{1, 4, 8, 12, 16}[r.Intn(5)]
		inH := max(1, k-2*pad) + r.Intn(5)
		inW := max(1, k-2*pad) + r.Intn(24)
		if r.Bernoulli(0.2) {
			inW = 64 - 2*pad - r.Intn(3) // the widest rows a word holds
		}
		ph, pw := inH+2*pad, inW+2*pad
		wsc := randF64s(r, inC*k*k*outC, 0.5)
		for i := range wsc {
			switch r.Intn(10) {
			case 0:
				wsc[i] = 0
			case 1:
				wsc[i] = math.Copysign(0, -1)
			}
		}
		p := r.Norm(0, 1)
		switch r.Intn(6) {
		case 0:
			p = 0
		case 1:
			p = 5e-324 * float64(1+r.Intn(1000)) // subnormal
		case 2:
			p = 1e308 // w·p overflows for |w| > 1.8
		case 3:
			p = 0.5 / float64(uint64(1)<<r.Intn(8)) // a phase payload
		}
		plane := make([]float64, inC*ph*pw)
		rows := make([]uint64, inC*ph)
		density := r.Float64()
		for ic := 0; ic < inC; ic++ {
			for iy := 0; iy < inH; iy++ {
				for ix := 0; ix < inW; ix++ {
					if r.Bernoulli(density) {
						plane[(ic*ph+iy+pad)*pw+ix+pad] = p
						rows[ic*ph+iy+pad] |= 1 << (ix + pad)
					}
				}
			}
		}
		wp := make([]float64, len(wsc))
		for i, w := range wsc {
			wp[i] = w * p
		}
		var bias []float64
		bsc := r.Float64()
		if r.Bernoulli(0.7) {
			bias = randF64s(r, outC, 0.1)
		}
		hw := (ph - k + 1) * (pw - k + 1)
		v := randF64s(r, outC*hw, 1)
		for i := range v {
			if r.Intn(4) == 0 {
				v[i] = 0
			}
		}
		want := append([]float64(nil), v...)
		ConvGather64(want, plane, wsc, inC, k, ph, pw)
		if bias != nil {
			for i := range want {
				want[i] += bias[i/hw] * bsc
			}
		}
		ConvMaskGather64(v, rows, wp, bias, bsc, inC, k, ph, pw)
		if i := sameBits64(v, want); i >= 0 {
			t.Fatalf("round %d (k=%d pad=%d inC=%d outC=%d %dx%d p=%v bias=%t): v[%d] = %v, plane gather %v",
				round, k, pad, inC, outC, inH, inW, p, bias != nil, i, v[i], want[i])
		}
	}
}

// BenchmarkConvGathers times one step of the served textures model's
// conv1 (3×16×16 input, pad 1, 3×3 kernel, 8 channels) under both dense
// gathers, half the inputs firing with one payload: the plane gather
// (multiply every tap) and the masked gather (add the pre-scaled weight
// of the firing ones, then the bias).
func BenchmarkConvGathers(b *testing.B) {
	const inC, k, ph, pw, outC = 3, 3, 18, 18, 8
	r := mathx.NewRNG(0xB6A7)
	wsc := randF64s(r, inC*k*k*outC, 0.3)
	bias := randF64s(r, outC, 0.05)
	plane := make([]float64, inC*ph*pw)
	rows := make([]uint64, inC*ph)
	for ic := 0; ic < inC; ic++ {
		for y := 1; y < ph-1; y++ {
			for x := 1; x < pw-1; x++ {
				if r.Bernoulli(0.5) {
					plane[(ic*ph+y)*pw+x] = 0.125
					rows[ic*ph+y] |= 1 << x
				}
			}
		}
	}
	wp := make([]float64, len(wsc))
	for i, w := range wsc {
		wp[i] = w * 0.125
	}
	v := make([]float64, outC*(ph-k+1)*(pw-k+1))
	b.Run("plane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvGather64(v, plane, wsc, inC, k, ph, pw)
		}
	})
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvMaskGather64(v, rows, wp, bias, 0.5, inC, k, ph, pw)
		}
	})
}
