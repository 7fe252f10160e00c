package kernels

import "math"

// The float64 primitives: the sequential simulator's two inner loops —
// the conv event scatter and the population fire sweep — on the same
// dispatch ladder as the float32 plane. The sequential engine stores a
// conv population base-major (cell = base·OutC + oc, the float32 plane's
// layout at B = 1), so one scatter tap is one contiguous OutC-wide
// update and a fire sweep walks cells in storage order.
//
// Their contract is stronger than the float32 plane's cross-tier one:
// every tier performs, per element, exactly the rounded float64
// operations of the pure-Go loops below — which are the pre-ladder
// engine's arithmetic verbatim (one rounded multiply, one add; compare;
// subtract) — so a simulation is bit-identical not only across tiers but
// to the engine before it had tiers. The packed forms use separate VMULPD
// and VADDPD, never FMA.
//
// What each tier packs:
//
//   - avx2: the conv scatter and both fire sweeps, 4 cells per op;
//   - avx512: the conv scatter, 8 cells per ZMM op, with unrolled bodies
//     for OutC 8 and 16; the fire sweeps run their avx2 forms, because
//     an 8-cell burst sweep (k-mask compare and blend) measured no gain
//     over them;
//   - sse: nothing. A 2-cell form would serve only a tier no benchmark
//     host runs, so it would be unmeasured code; sse runs the generic
//     loops.
//
// The packed forms need cell groups that never straddle a bias period,
// so they take populations whose channel count (the bias period) is a
// multiple of the group: 4 on avx2, 8 for the avx512 scatter, which
// hands OutC 4 or 12 to the avx2 form. Everything else — OutC 3, a
// 10-wide dense layer — runs the generic loop, with identical results.
// A dense layer scatters through the same kernel with a table of one
// tap per input (its weight row, base 0), so OutC is its width.

// ConvScatter64 applies one input event of payload p to a base-major
// conv accumulator, walking the event's whole tap list — the one-event
// case of ConvScatterEvents64, which the simulator calls once per step:
//
//	for each tap t:
//	  vmem[t.Base·outC + i] += wsc[t.WOff+i] * p   for i in [0,outC)
//
// Each destination receives exactly one rounded product and one add. An
// event touches a neuron at most once (its taps address distinct
// bases), so the order taps are applied in cannot change a bit. vmem and
// wsc must cover every tap's block and row.
func ConvScatter64(vmem, wsc []float64, taps []ConvTap, outC int, p float64) {
	if len(taps) == 0 || outC <= 0 {
		return
	}
	convScatter64(vmem, wsc, taps, outC, p)
}

// Event is one spike: the flat index of the neuron that fired and the
// payload it transmits. It is defined here, below every package that
// produces or consumes spikes, so a kernel can walk a step's event list
// as it stands (coding.Event is this type).
type Event struct {
	Index   int
	Payload float64
}

// ConvScatterEvents64 applies one step's whole event list to a
// base-major conv accumulator in one call — ConvScatter64 over
// taps[tapStart[ev.Index]:tapStart[ev.Index+1]] with payload ev.Payload
// for each event in order, so every destination receives the same
// rounded products in the same order as the per-event loop. tapStart is
// the layer's scatter-table index (one entry per input neuron plus the
// end); an event whose Index lies outside it panics before anything is
// written. vmem and wsc must cover every tap's block and row.
func ConvScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	if len(events) == 0 || outC <= 0 {
		return
	}
	inputs := uint(max(len(tapStart)-1, 0))
	for i := range events {
		if uint(events[i].Index) >= inputs {
			panic("kernels: ConvScatterEvents64: event index outside the scatter table")
		}
	}
	convScatterEvents64(vmem, wsc, taps, tapStart, events, outC)
}

// FireCells64 is the scheme-constant-threshold fire sweep (rate, phase,
// TTFS hidden layers) over a population in storage order: per cell c,
//
//	v[c] += bias[c mod len(bias)] * bsc     (skipped when bias is nil)
//	if v[c] >= th { v[c] -= th; bit c&63 of mask[c>>6] set }
//
// bias is the layer's per-channel current with period len(bias) in
// storage order (OutC for a base-major conv, the population size for a
// dense layer); the product is formed per cell exactly as the scalar
// fused fire pass forms it. Every mask word covering [0, len(v)) is
// fully rewritten. mask must hold ⌈len(v)/64⌉ words.
func FireCells64(v []float64, mask []uint64, bias []float64, bsc, th float64) {
	if len(v) == 0 {
		return
	}
	_ = mask[(len(v)-1)>>6]
	fireCells64(v, mask, bias, bsc, th)
}

// FireCellsBurst64 is the burst-coding fire sweep (Eq. 8/9) over a
// population in storage order. h is the folded burst state: the g this
// step uses, written back as the g the next step will use —
//
//	v[c] += bias[c mod len(bias)] * bsc     (skipped when bias is nil)
//	g := h[c]; th := g·vth; pay[c] = th
//	if v[c] >= th { v[c] -= th; h[c] = beta·g; mask bit set } else { h[c] = 1 }
//
// which is Eq. 8's g(t) = fired(t−1) ? β·g(t−1) : 1 with the select
// moved to the step that knows the answer; the product β·g is the same
// one, so the trajectory is bit-identical to the unfolded form. pay
// receives every cell's threshold; consumers read it at set mask bits.
// h and pay must share v's length; mask as in FireCells64.
func FireCellsBurst64(v, h, pay []float64, mask []uint64, bias []float64, bsc, beta, vth float64) {
	if len(v) == 0 {
		return
	}
	_ = h[len(v)-1]
	_ = pay[len(v)-1]
	_ = mask[(len(v)-1)>>6]
	fireCellsBurst64(v, h, pay, mask, bias, bsc, beta, vth)
}

func convScatterEvents64Generic(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	for _, ev := range events {
		convScatter64Generic(vmem, wsc, taps[tapStart[ev.Index]:tapStart[ev.Index+1]], outC, ev.Payload)
	}
}

func convScatter64Generic(vmem, wsc []float64, taps []ConvTap, outC int, p float64) {
	for _, tp := range taps {
		row := wsc[tp.WOff : int(tp.WOff)+outC]
		dst := vmem[int(tp.Base)*outC:]
		dst = dst[:len(row)]
		// Four cells per iteration: the same one multiply and one add per
		// cell, with a quarter of the loop bookkeeping.
		j := 0
		for ; j+4 <= len(row); j += 4 {
			r, d := row[j:j+4:j+4], dst[j:j+4:j+4]
			d[0] += r[0] * p
			d[1] += r[1] * p
			d[2] += r[2] * p
			d[3] += r[3] * p
		}
		for ; j < len(row); j++ {
			dst[j] += row[j] * p
		}
	}
}

// fireCells64Scalar sweeps cells [from, len(v)) — the pure-Go kernel
// body (from == 0) and the tail the packed form leaves past its last
// full 4-cell group. from is a multiple of 4; when it falls inside a
// mask word the bits already there are kept.
func fireCells64Scalar(v []float64, mask []uint64, from int, bias []float64, bsc, th float64) {
	if from == len(v) {
		return
	}
	var w uint64
	if from&63 != 0 {
		w = mask[from>>6]
	}
	bi := 0
	if bias != nil {
		bi = from % len(bias)
	}
	for c := from; c < len(v); c++ {
		x := v[c]
		if bias != nil {
			x += bias[bi] * bsc
			if bi++; bi == len(bias) {
				bi = 0
			}
		}
		// Eq. 4 (reset-by-subtraction): the membrane keeps the residual;
		// the spike carries the subtracted amount. Whether a cell fires is
		// the one branch here a predictor cannot learn (a fifth of a conv
		// layer fires per step), so the outcome is an all-ones/zero word
		// the compiler materializes with a conditional move: a silent cell
		// subtracts +0, which is exact.
		var m uint64
		if x >= th {
			m = ^uint64(0)
		}
		x -= math.Float64frombits(math.Float64bits(th) & m)
		w |= m & 1 << (uint(c) & 63)
		v[c] = x
		if c&63 == 63 {
			mask[c>>6] = w
			w = 0
		}
	}
	if len(v)&63 != 0 {
		mask[len(v)>>6] = w
	}
}

// fireCellsBurst64Scalar is fireCells64Scalar's burst twin: the same
// branch-free select, which also picks the next burst state.
func fireCellsBurst64Scalar(v, h, pay []float64, mask []uint64, from int, bias []float64, bsc, beta, vth float64) {
	if from == len(v) {
		return
	}
	var w uint64
	if from&63 != 0 {
		w = mask[from>>6]
	}
	bi := 0
	if bias != nil {
		bi = from % len(bias)
	}
	for c := from; c < len(v); c++ {
		x := v[c]
		if bias != nil {
			x += bias[bi] * bsc
			if bi++; bi == len(bias) {
				bi = 0
			}
		}
		g := h[c]
		th := g * vth
		pay[c] = th
		var m uint64
		if x >= th {
			m = ^uint64(0)
		}
		x -= math.Float64frombits(math.Float64bits(th) & m)
		h[c] = math.Float64frombits(math.Float64bits(beta*g)&m | math.Float64bits(1)&^m)
		w |= m & 1 << (uint(c) & 63)
		v[c] = x
		if c&63 == 63 {
			mask[c>>6] = w
			w = 0
		}
	}
	if len(v)&63 != 0 {
		mask[len(v)>>6] = w
	}
}
