// Package kernels is the sequential simulator's block-primitive layer:
// the handful of inner loops it spends its time in (kernels64.go) — the
// conv event scatter, the dense-input conv gathers and the population
// fire sweeps — under one contract: bit-identity with the scalar engine
// they replaced. Each has more than one body, picked at runtime by three
// dispatch tiers (see level.go):
//
//   - purego: the generic Go loops (the whole story on the `purego`
//     build, every non-amd64 platform and any amd64 CPU without AVX2);
//   - avx2: 4 float64 cells per VEX-encoded op, selected by CPUID at
//     startup; and
//   - avx512: 8 cells per ZMM op.
//
// CI runs the suite once per tier via KERNELS_LEVEL (see
// .github/workflows/ci.yml). The tier — the one the sequential engine
// runs on, and the one /metrics reports — is ActiveLevel.
//
// This file holds ConvTap, the scatter-table entry the float64 kernels
// share, and three float32 block primitives over lane-striped (B lanes
// per neuron) state. No simulator calls the float32 three; they stay
// because the frozen repository benchmark's ladder times them by name.
// Each is one plain Go loop on every build and tier: every destination
// element receives exactly one rounded multiply and one add (the product
// is materialized before the add, so no build contracts it into an FMA),
// and the threshold test subtracts the same float32 value. The fuzz
// tests pin each one to a naive scalar reference.
package kernels

// ConvTap is one entry of a conv layer's precomputed scatter table: the
// offset of the tap's kernel row in the scatter-ordered weight copy
// (WOff, in elements — the OutC weights of one tap are contiguous) and
// the output spatial base (Base — the tap's destination block starts at
// element Base·OutC·b of the base-major accumulator, b = 1 for the
// sequential simulator). Layers build these tables once at construction;
// the fused scatters consume them directly so one event costs one kernel
// call, not one per tap.
type ConvTap struct {
	WOff int32
	Base int32
}

// AxpyBlock scatters one weighted tap into a lane-striped block:
//
//	dst[i*b : i*b+lanes] += row[i] * p   for every i in range(len(row))
//
// b is the lane stride and lanes the active-lane count; the product
// row[i]*p is hoisted out of the lane loop. dst must hold at least
// (len(row)-1)*b+lanes elements. It stays because the frozen benchmark
// names it.
func AxpyBlock(dst, row []float32, p float32, b, lanes int) {
	if len(row) == 0 || lanes <= 0 {
		return
	}
	_ = dst[(len(row)-1)*b+lanes-1] // one bounds check up front
	off := 0
	for _, w := range row {
		wp := w * p
		stripe := dst[off : off+lanes]
		i := 0
		for ; i+4 <= len(stripe); i += 4 {
			stripe[i] += wp
			stripe[i+1] += wp
			stripe[i+2] += wp
			stripe[i+3] += wp
		}
		for ; i < len(stripe); i++ {
			stripe[i] += wp
		}
		off += b
	}
}

// ConvScatterVec applies one event column to a base-major lane-striped
// conv accumulator, walking the column's whole tap list in a single call:
//
//	for each tap t:
//	  vmem[t.Base·outC·b + i·b + j] += wsc[t.WOff+i] * pv[j]
//	                                   for i in [0,outC), j in [0,b)
//
// pv is the per-lane payload vector, zero in lanes the column does not
// carry (they accumulate row[i]*0, exact for finite weights). Each
// element receives exactly one rounded multiply and one add. vmem and
// wsc must cover every tap's block and row; pv must hold at least b
// elements. It stays because the frozen benchmark names it.
func ConvScatterVec(vmem, wsc []float32, taps []ConvTap, outC, b int, pv []float32) {
	if len(taps) == 0 || outC <= 0 || b <= 0 {
		return
	}
	_ = pv[b-1] // one bounds check up front
	pv = pv[:b]
	outCb := outC * b
	for _, tp := range taps {
		dst := vmem[int(tp.Base)*outCb : int(tp.Base)*outCb+outCb]
		row := wsc[tp.WOff : int(tp.WOff)+outC]
		off := 0
		for _, w := range row {
			stripe := dst[off : off+b]
			for j, p := range pv {
				wp := w * p
				stripe[j] += wp
			}
			off += b
		}
	}
}

// FireRowsBurst is the fused burst-coding fire pass (Eq. 8/9) over n
// consecutive b-wide lane rows — a whole population's threshold sweep
// for one step. Row c adds the bias current bv = bias[c]*bsc (0 when
// bias is nil) and then, per lane s of the row (element k = c·b+s):
//
//	v[k] += bv
//	g[k] = fired[k] != 0 ? beta·g[k] : 1     (Eq. 8)
//	th   = g[k]·vth                          (Eq. 9)
//	pay[k] = th
//	if v[k] >= th { v[k] -= th; fired[k] = ^0; set bit s of masks[c] } else { fired[k] = 0 }
//
// fired is the previous step's fired-lane state as full words (zero /
// all-ones), updated in place; pay receives the threshold
// unconditionally. occ receives a row-occupancy summary: bit c&63 of
// occ[c>>6] is set iff masks[c] != 0 (every covered word is fully
// rewritten). v, g, pay must hold n·b floats, fired n·b words, masks n
// words, occ ⌈n/64⌉ words, and bias (when non-nil) n values; b may be at
// most 64. It stays because the frozen benchmark names it.
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
	var w uint64
	for c := 0; c < n; c++ {
		var bv float32
		if bias != nil {
			bv = bias[c] * bsc
		}
		o := c * b
		vr, gr, pr, fr := v[o:o+b], g[o:o+b], pay[o:o+b], fired[o:o+b]
		var m uint64
		for s := range vr {
			x := vr[s] + bv
			gv := float32(1)
			if fr[s] != 0 {
				gv = beta * gr[s]
			}
			gr[s] = gv
			th := gv * vth
			pr[s] = th
			if x >= th {
				x -= th
				fr[s] = ^uint32(0)
				m |= 1 << uint(s)
			} else {
				fr[s] = 0
			}
			vr[s] = x
		}
		masks[c] = m
		if m != 0 {
			w |= 1 << (uint(c) & 63)
		}
		if c&63 == 63 {
			occ[c>>6] = w
			w = 0
		}
	}
	if n&63 != 0 {
		occ[(n-1)>>6] = w
	}
}
