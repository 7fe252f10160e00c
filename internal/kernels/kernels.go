// Package kernels is the simulators' block-primitive layer: the handful
// of inner loops they spend their time in, shaped for SIMD. Most of it
// serves the float32 compute plane: the batched lockstep simulator
// stores neuron state B-striped (lane-major) and the conv population
// base-major, so one scatter tap — one weight row applied to one event
// column — updates a contiguous OutC×B float32 block, and the float32
// primitives consume exactly that shape. The sequential float64
// simulator's conv scatter and fire sweeps live here too (kernels64.go):
// the same base-major layout at B = 1, the same ladder, and a stronger
// contract — bit-identity with the scalar engine they replaced, not
// only with each other.
//
// Three dispatch tiers share one contract (see level.go for the
// runtime-selection machinery):
//
//   - purego: unrolled scalar float32 loops the compiler schedules well
//     (the whole story on the `purego` build, every non-amd64 platform
//     and any amd64 CPU without AVX2);
//   - avx2: 8-lane VEX-encoded packed single precision — one full B=8
//     lane stripe per instruction — selected by CPUID at startup; and
//   - avx512: the float64 conv scatter, conv gather and fire sweeps on
//     ZMM registers, every float32 kernel in its avx2 form.
//
// The tiers are semantically identical, not merely close: every
// primitive performs the same float32 operations on the same elements —
// each destination element receives exactly one rounded multiply and one
// add per call (the AVX2 kernels use separate multiply and add, never
// FMA), and the threshold test subtracts the same float32 value — so a
// simulation produces bit-identical float32 trajectories whichever tier
// executes it. CI runs the suite once per tier via KERNELS_LEVEL (see
// .github/workflows/ci.yml); the fuzz tests in this package pin each
// primitive to a naive scalar reference at random shapes under every
// available tier. The tier — the one the sequential engine runs on, and
// the one /metrics reports — is ActiveLevel.
package kernels

// AxpyBlock scatters one weighted tap into a lane-striped block:
//
//	dst[i*b : i*b+lanes] += row[i] * p   for every i in range(len(row))
//
// b is the lane stride (the batch capacity B) and lanes the active-lane
// count. This is the batched scatter's workhorse: one event column with
// a uniform payload p applies weight row `row` to every active lane, the
// product row[i]*p hoisted out of the lane loop. dst must hold at least
// (len(row)-1)*b+lanes elements.
func AxpyBlock(dst, row []float32, p float32, b, lanes int) {
	if len(row) == 0 || lanes <= 0 {
		return
	}
	_ = dst[(len(row)-1)*b+lanes-1] // one bounds check up front
	axpyBlock(dst, row, p, b, lanes)
}

// AxpyBlockVec scatters one weight row against a dense per-lane payload
// vector:
//
//	dst[i*b+j] += row[i] * pv[j]   for i in range(len(row)), j in [0, lanes)
//
// This is the partial-column scatter: a column that spiked in only some
// lanes (or with per-lane burst payloads) is densified into pv — payload
// at each spiking lane's slot, zero elsewhere — and every tap then runs
// as one packed multiply-add over the contiguous stripe instead of a
// strided per-lane walk. Lanes absent from the column accumulate
// row[i]*0, which is exact for finite weights (a ±0 add leaves every
// membrane value unchanged, except that it may normalize a -0 to +0 —
// invisible to thresholds, payloads, and argmax). pv must hold at least
// lanes elements and dst at least (len(row)-1)*b+lanes.
func AxpyBlockVec(dst, row, pv []float32, b, lanes int) {
	if len(row) == 0 || lanes <= 0 {
		return
	}
	_ = dst[(len(row)-1)*b+lanes-1]
	_ = pv[lanes-1]
	axpyBlockVec(dst, row, pv, b, lanes)
}

// AxpyLane scatters one weighted tap into a single lane of a striped
// block: dst[lane+i*b] += row[i] * p. The strided single-lane form of
// AxpyBlock, used for partial event columns; it stays scalar on every
// build (a stride-B walk has no profitable packed form at these widths).
func AxpyLane(dst, row []float32, p float32, b, lane int) {
	vb := lane
	for _, w := range row {
		dst[vb] += w * p
		vb += b
	}
}

// ScaleAdd adds the scalar x to every element of dst — the lane-stripe
// bias/current add (dst is one neuron's active-lane stripe).
func ScaleAdd(dst []float32, x float32) {
	if len(dst) == 0 {
		return
	}
	scaleAdd(dst, x)
}

// FireRow is the fused threshold-compare + lane-bitmask emission over one
// neuron's lane stripe: for every s, if v[s] >= th then v[s] -= th
// (reset by subtraction) and bit s is set in the returned mask. len(v)
// must be at most 64.
func FireRow(v []float32, th float32) uint64 {
	if len(v) == 0 {
		return 0
	}
	return fireRow(v, th)
}

// FireRowBias is FireRow with the neuron's per-step bias current fused
// in: v[s] += bias first, then the threshold test. The bias lands on
// every lane (firing or not), exactly like the scalar fused fire pass.
func FireRowBias(v []float32, bias, th float32) uint64 {
	if len(v) == 0 {
		return 0
	}
	return fireRowBias(v, bias, th)
}

// FireRowBurst is the fused burst-coding fire pass (Eq. 8/9) over one
// neuron's lane stripe: per lane s,
//
//	v[s] += bias
//	g[s] = fired[s] != 0 ? beta·g[s] : 1     (Eq. 8)
//	th   = g[s]·vth                          (Eq. 9)
//	pay[s] = th
//	if v[s] >= th { v[s] -= th; fired[s] = ^0; bit s set } else { fired[s] = 0 }
//
// fired is the previous step's fired-lane state as full words (zero /
// all-ones — the blend-mask representation the packed implementation
// needs), updated in place. pay receives the per-lane threshold
// unconditionally; consumers read it only at set mask bits. bias is
// added on every call (pass 0 for bias-free layers — exact except that
// a -0 membrane normalizes to +0, which no threshold or payload can
// observe). All slices must share v's length (at most 64).
func FireRowBurst(v, g, pay []float32, fired []uint32, bias, beta, vth float32) uint64 {
	if len(v) == 0 {
		return 0
	}
	_ = g[len(v)-1]
	_ = pay[len(v)-1]
	_ = fired[len(v)-1]
	return fireRowBurst(v, g, pay, fired, bias, beta, vth)
}

// ConvTap is one entry of a conv layer's precomputed scatter table: the
// offset of the tap's kernel row in the scatter-ordered weight copy
// (WOff, in elements — the OutC weights of one tap are contiguous) and
// the output spatial base (Base — the tap's destination block starts at
// element Base·OutC·b of the base-major accumulator). The simulator
// builds these tables once at layer construction; the fused scatter
// below consumes them directly so one event column costs one kernel
// call, not one per tap.
type ConvTap struct {
	WOff int32
	Base int32
}

// ConvScatterVec applies one event column to a base-major conv
// accumulator, walking the column's whole tap list in a single call:
//
//	for each tap t:
//	  vmem[t.Base·outC·b + i·b + j] += wsc[t.WOff+i] * pv[j]
//	                                   for i in [0,outC), j in [0,b)
//
// pv is the lane-dense payload vector padded with zeros to the full
// stripe width b (absent or retired lanes accumulate row[i]*0, exact for
// finite weights — see AxpyBlockVec). Fusing the tap walk matters
// because conv taps are short (OutC stripes): per-tap kernel calls spend
// comparable time in call overhead as in arithmetic, which caps what a
// wider vector tier can win. Each element receives exactly one rounded
// multiply and one add, identical on every tier. vmem and wsc must cover
// every tap's block and row; pv must hold at least b elements.
func ConvScatterVec(vmem, wsc []float32, taps []ConvTap, outC, b int, pv []float32) {
	if len(taps) == 0 || outC <= 0 || b <= 0 {
		return
	}
	_ = pv[b-1]
	convScatterVec(vmem, wsc, taps, outC, b, pv)
}

// FireRowsBurst runs the fused burst fire pass (see FireRowBurst) over n
// consecutive b-wide lane rows in one call — the whole population's
// threshold sweep per step. Row c uses the bias current bias[c]*bsc
// (or 0 when bias is nil, both rounded exactly as the per-row form) and
// deposits its fired-lane bitmask in masks[c]:
//
//	masks[c] = FireRowBurst(v[c·b:(c+1)·b], g[...], pay[...], fired[...],
//	                        bv, beta, vth)
//
// occ receives a row-occupancy summary: bit c&63 of occ[c>>6] is set iff
// masks[c] != 0 (every covered word is fully rewritten). Spiking is
// sparse, so the emission sweep that follows the fire pass uses occ to
// skip 64 silent rows per word instead of touching every mask.
//
// The full b-wide stripe is processed including retired lanes (their
// state is never read again — callers strip retired lanes from masks at
// emission), which keeps every row one packed pass and lets independent
// rows pipeline instead of paying a call and a serial dependency chain
// per neuron. v, g, pay must hold n·b floats, fired n·b words, masks n
// words, occ ⌈n/64⌉ words, and bias (when non-nil) n values; b may be at
// most 64.
func FireRowsBurst(v, g, pay []float32, fired []uint32, masks, occ []uint64, n, b int, bias []float32, bsc, beta, vth float32) {
	if n <= 0 || b <= 0 {
		return
	}
	_ = v[n*b-1]
	_ = g[n*b-1]
	_ = pay[n*b-1]
	_ = fired[n*b-1]
	_ = masks[n-1]
	_ = occ[(n-1)>>6]
	if bias != nil {
		_ = bias[n-1]
	}
	fireRowsBurst(v, g, pay, fired, masks, occ, n, b, bias, bsc, beta, vth)
}

// SelectMaxRow merges one row of a lane-striped matrix into a running
// lane-wise argmax: for every s in [0, lanes),
//
//	if row[s] > best[s] { best[s] = row[s]; idx[s] = o }
//
// Sweeping a readout's class rows in ascending o order through
// SelectMaxRow yields, per lane, the argmax with the first-wins tie rule
// (strictly-greater replacement) — the batched form of the per-slot
// strided argmax, turned into contiguous row passes the packed tiers
// blend in one compare + select. All slices must hold at least lanes
// elements; lanes may be at most 64.
func SelectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	if lanes <= 0 {
		return
	}
	_ = best[lanes-1]
	_ = row[lanes-1]
	_ = idx[lanes-1]
	selectMaxRow(best, row, idx, o, lanes)
}

// LaneMaskBit returns the lane bitmask with bit s set iff bit `shift` of
// row[s] is set — the batched phase-encoder sweep (row is one pixel's
// lane-striped quantization words; the result feeds BatchEvents32.AddMask
// with the step's uniform payload). len(row) must be at most 64 and
// shift at most 63.
func LaneMaskBit(row []uint64, shift uint) uint64 {
	if len(row) == 0 {
		return 0
	}
	return laneMaskBit(row, shift)
}

// LaneMaskEq returns the lane bitmask with bit s set iff row[s] == want —
// the batched TTFS-encoder sweep (row is one pixel's lane-striped firing
// phases, want the phase that fires at this step). len(row) must be at
// most 64.
func LaneMaskEq(row []uint64, want uint64) uint64 {
	if len(row) == 0 {
		return 0
	}
	return laneMaskEq(row, want)
}
