package kernels

import "math"

// The float64 primitives: the sequential simulator's inner loops — the
// conv event scatter, the dense-input conv gather and the population fire
// sweep — on the dispatch ladder (level.go). A hidden conv
// population is stored base-major (cell = base·OutC + oc), so one
// scatter tap is one contiguous OutC-wide update; the conv the input
// encoder feeds is stored CHW and
// gathered (ConvGather64); a fire sweep walks cells in storage order and
// writes the step's events itself.
//
// Their contract: every tier performs, per element, exactly the rounded float64
// operations of the pure-Go loops below — which are the pre-ladder
// engine's arithmetic verbatim (one rounded multiply, one add; compare;
// subtract) — so a simulation is bit-identical not only across tiers but
// to the engine before it had tiers. The packed forms use separate VMULPD
// and VADDPD, never FMA.
//
// What each tier packs:
//
//   - avx2: the conv scatter, the conv gather and both fire sweeps, 4
//     cells per op; a sweep writes each group's 4 events at the cursor
//     and advances it by the fired bits;
//   - avx512: the same four, 8 cells per ZMM op. The scatter has unrolled
//     bodies for OutC 8 and 16; the gather hands a row's 4-column
//     remainder to the avx2 form. A fire sweep compresses the fired cells'
//     indices and thresholds out of the compare mask (VPCOMPRESSQ,
//     VCOMPRESSPD) and interleaves them into events with two VPERMI2Q, so
//     a group of 8 cells costs two 64-byte stores and a popcount however
//     many fire;
//   - purego: the generic loops below.
//
// The packed forms need cell groups that never straddle a bias period or
// a channel, so they take populations whose channel count (the bias
// period; the gather's OutC) is a multiple of the group: 4 on avx2, 8 for
// the avx512 scatter and fire sweeps, which hand a period of 4 or 12 to
// the avx2 form. Everything else — OutC 3, a 10-wide dense layer — runs
// the generic loop, with identical results. A dense layer scatters
// through the same kernel with a table of one tap per input (its weight
// row, base 0), so OutC is its width. The DNN trainer's matrix products
// (internal/tensor) are the same scatter: a row of C = A·B is the
// accumulator, A's entries are the events and B's rows the taps, so
// training inherits the contract — bit-identical to its scalar loops at
// every tier.

// Event is one spike: the flat index of the neuron that fired and the
// payload it transmits. It is defined here, below every package that
// produces or consumes spikes, so a kernel can walk a step's event list
// as it stands (coding.Event is this type).
type Event struct {
	Index   int
	Payload float64
}

// ConvScatterEvents64 applies one step's whole event list to a
// base-major conv accumulator in one call. Each event, in order, walks
// its tap list taps[tapStart[ev.Index]:tapStart[ev.Index+1]] with
// payload p = ev.Payload:
//
//	for each tap t:
//	  vmem[t.Base·outC + i] += wsc[t.WOff+i] * p   for i in [0,outC)
//
// An event adds exactly one rounded product to each destination it
// touches, and touches a neuron at most once (its taps address distinct
// bases), so the order its taps are applied in cannot change a bit;
// events apply in list order. tapStart is the layer's scatter-table
// index (one entry per input neuron plus the end); an event whose Index
// lies outside it panics before anything is written. vmem and wsc must
// cover every tap's block and row.
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

// ConvGather64 is a stride-1 convolution run output-stationary: every
// CHW output cell adds its whole receptive field, read from a zero-padded
// input plane of inC channels of ph×pw values, in ascending (ic, kh, kw)
// order —
//
//	for oc, oy, ox; for ic, kh, kw ascending:
//	  v[(oc·outH+oy)·outW+ox] += wsc[((ic·k+kh)·k+kw)·outC+oc] * plane[(ic·ph+oy+kh)·pw+ox+kw]
//
// with outH = ph−k+1, outW = pw−k+1 and outC = len(v)/(outH·outW). wsc is
// the scatter's weight layout, so one tap's outC weights are contiguous.
// Ascending (ic, kh, kw) is ascending input index, the order the scatter
// adds a step's (ascending) events in, so with a step's payloads in the
// plane the two agree bit for bit: a silent or padded input adds w·0 =
// ±0, which leaves every membrane but −0 unchanged, and the simulator
// never holds a −0 membrane. That needs every weight finite (w·0 is NaN
// for an infinite one), which the caller checks once. The geometry must
// match the slices; a mismatch panics before anything is written.
func ConvGather64(v, plane, wsc []float64, inC, k, ph, pw int) {
	outH, outW := ph-k+1, pw-k+1
	if inC <= 0 || k <= 0 || outH <= 0 || outW <= 0 || len(v)%(outH*outW) != 0 {
		panic("kernels: ConvGather64: bad geometry")
	}
	outC := len(v) / (outH * outW)
	if len(wsc) != inC*k*k*outC || len(plane) < inC*ph*pw {
		panic("kernels: ConvGather64: weights or plane do not match the geometry")
	}
	if outC > 0 {
		convGather64(v, plane, wsc, outC, inC, k, ph, pw)
	}
}

// ConvGatherPacked reports whether ConvGather64 runs a packed form for
// outC output channels at the active tier: avx2 or avx512, outC a
// multiple of 4. Otherwise every column goes through the generic loop,
// which is slower than the event scatter even when every input fires
// (BenchmarkHotpathEncoderConvStep at purego), so a layer gathers only
// where this holds.
func ConvGatherPacked(outC int) bool { return convGatherPacked(outC) }

// FireCells64 is the scheme-constant-threshold fire sweep (rate, phase,
// TTFS hidden layers) over a population in storage order. Per cell c,
//
//	v[c] += bias[c mod len(bias)] * bsc     (skipped when bias is nil)
//	if v[c] >= th { v[c] -= th; emit {c, th} }
//
// It returns k, the number of events: ev[:k] are the fired cells in
// ascending storage order, each with payload th; ev[k:] may have been
// overwritten. bias is the layer's per-channel current with period
// len(bias) in storage order (OutC for a base-major conv, the population
// size for a dense layer or a CHW conv); the product is formed per cell
// exactly as the scalar fused fire pass forms it. ev must hold len(v)
// events.
func FireCells64(v []float64, ev []Event, bias []float64, bsc, th float64) int {
	if len(v) == 0 {
		return 0
	}
	_ = ev[len(v)-1]
	return fireCells64(v, ev, bias, bsc, th)
}

// FireCellsBurst64 is the burst-coding fire sweep (Eq. 8/9) over a
// population in storage order. h is the folded burst state: the g this
// step uses, written back as the g the next step will use —
//
//	v[c] += bias[c mod len(bias)] * bsc     (skipped when bias is nil)
//	g := h[c]; th := g·vth
//	if v[c] >= th { v[c] -= th; h[c] = beta·g; emit {c, th} } else { h[c] = 1 }
//
// which is Eq. 8's g(t) = fired(t−1) ? β·g(t−1) : 1 with the select
// moved to the step that knows the answer; the product β·g is the same
// one, so the trajectory is bit-identical to the unfolded form. Events
// and the count are as in FireCells64, each carrying its cell's own
// threshold. h must share v's length.
func FireCellsBurst64(v, h []float64, ev []Event, bias []float64, bsc, beta, vth float64) int {
	if len(v) == 0 {
		return 0
	}
	_ = h[len(v)-1]
	_ = ev[len(v)-1]
	return fireCellsBurst64(v, h, ev, bias, bsc, beta, vth)
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

// convGather64Cols gathers output columns [from, outW) of every channel
// and row — the pure-Go kernel body (from == 0) and the columns a packed
// form leaves past its last full cell group. It walks the taps in order
// and applies each to the whole row segment, so every cell still adds its
// taps in ascending order while neighbouring cells' adds stay
// independent.
func convGather64Cols(v, plane, wsc []float64, outC, inC, k, ph, pw, from int) {
	outH, outW := ph-k+1, pw-k+1
	if from >= outW {
		return
	}
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			row := v[(oc*outH+oy)*outW+from : (oc*outH+oy+1)*outW]
			w := oc
			for ic := 0; ic < inC; ic++ {
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						src := plane[(ic*ph+oy+kh)*pw+from+kw:]
						src = src[:len(row)]
						wt := wsc[w]
						for i := range row {
							row[i] += wt * src[i]
						}
						w += outC
					}
				}
			}
		}
	}
}

// fireCells64Scalar sweeps cells [from, len(v)) with the event cursor at
// k and returns the cursor after them — the pure-Go kernel body (from =
// k = 0) and the tail a packed form leaves past its last full cell group.
// Every cell writes its event at the cursor and only a fired one advances
// it: whether a cell fires is the one branch here a predictor cannot
// learn (a fifth of a conv layer fires per step), so the outcome is an
// all-ones/zero word the compiler materializes with a conditional move.
// The cursor never passes the cell, so the write stays inside ev.
func fireCells64Scalar(v []float64, ev []Event, from, k int, bias []float64, bsc, th float64) int {
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
		// the spike carries the subtracted amount. A silent cell subtracts
		// +0, which is exact.
		var m uint64
		if x >= th {
			m = ^uint64(0)
		}
		x -= math.Float64frombits(math.Float64bits(th) & m)
		v[c] = x
		ev[k] = Event{Index: c, Payload: th}
		k += int(m & 1)
	}
	return k
}

// fireCellsBurst64Scalar is fireCells64Scalar's burst twin: the same
// branch-free select, which also picks the next burst state.
func fireCellsBurst64Scalar(v, h []float64, ev []Event, from, k int, bias []float64, bsc, beta, vth float64) int {
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
		var m uint64
		if x >= th {
			m = ^uint64(0)
		}
		x -= math.Float64frombits(math.Float64bits(th) & m)
		h[c] = math.Float64frombits(math.Float64bits(beta*g)&m | math.Float64bits(1)&^m)
		v[c] = x
		ev[k] = Event{Index: c, Payload: th}
		k += int(m & 1)
	}
	return k
}
