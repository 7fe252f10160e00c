package snn

import (
	"fmt"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
)

// f32s materializes the float32 copy of a weight or bias array: the
// float32 compute plane's view of the model, rounded once at conversion
// time (IEEE round-to-nearest) and shared read-only by every clone and
// batched simulator. Constructors call it eagerly so a served model pays
// the rounding exactly once, not per replica.
func f32s(v []float64) []float32 {
	w := make([]float32, len(v))
	for i, x := range v {
		w[i] = float32(x)
	}
	return w
}

// SpikingDense is a fully connected spiking layer: in events scatter
// through the weight matrix into membrane potentials, then the population
// fires under its coding dynamics.
type SpikingDense struct {
	In, Out int
	// WT is the transposed weight matrix (In × Out) so one input event
	// touches a contiguous row — the event-driven hot path.
	WT   []float64
	Bias []float64
	// WT32/Bias32 are the float32 compute plane's copies (same layout).
	WT32   []float32
	Bias32 []float32

	// taps[i] = {WOff: i·Out, Base: 0} is input i's one scatter tap (its
	// WT row into the whole population) and tapStart[i] = i, so a step's
	// events are one kernels.ConvScatterEvents64 call with OutC = Out.
	// Immutable, shared by clones.
	taps     []convTap
	tapStart []int32

	pop *population
	z   []float64 // reference-path scratch (StepSlow only)
}

// NewSpikingDense builds the layer from a row-major Out×In weight matrix.
func NewSpikingDense(w []float64, bias []float64, in, out int, cfg coding.Config) *SpikingDense {
	if len(w) != in*out || len(bias) != out {
		panic(fmt.Sprintf("snn: dense weight dims %d/%d do not match %dx%d", len(w), len(bias), out, in))
	}
	wt := make([]float64, in*out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			wt[i*out+o] = w[o*in+i]
		}
	}
	l := &SpikingDense{
		In: in, Out: out, WT: wt, Bias: append([]float64(nil), bias...),
		WT32: f32s(wt), Bias32: f32s(bias),
		taps:     make([]convTap, in),
		tapStart: make([]int32, in+1),
		pop:      newPopulation(out, cfg),
		z:        make([]float64, out),
	}
	for i := range l.taps {
		l.taps[i].WOff = int32(i * out)
		l.tapStart[i+1] = int32(i + 1)
	}
	return l
}

// Name implements Layer.
func (l *SpikingDense) Name() string { return "sdense" }

// NumNeurons implements Layer.
func (l *SpikingDense) NumNeurons() int { return l.Out }

// Reset implements Layer.
func (l *SpikingDense) Reset() { l.pop.resetState() }

// Step implements Layer. Events scatter straight into the membrane
// accumulators — one scatter-kernel call over the one-tap table, each
// cell one rounded product and one add per event, in event order — and
// the bias current (scaled to the input encoder's information rate, see
// coding.InputEncoder.BiasScale) is folded into the population's firing
// pass, so the whole step is one sweep over the events plus one sweep
// over the neurons.
func (l *SpikingDense) Step(t int, biasScale float64, in []coding.Event) []coding.Event {
	kernels.ConvScatterEvents64(l.pop.vmem, l.WT, l.taps, l.tapStart, in, l.Out)
	return l.pop.fire(t, l.Bias, biasScale)
}

// StepSlow implements RefLayer: the pre-optimization three-pass version
// (bias into the z scratch, event scatter into z, z into vmem, fire).
func (l *SpikingDense) StepSlow(t int, biasScale float64, in []coding.Event) []coding.Event {
	z := l.z
	for o, b := range l.Bias {
		z[o] = b * biasScale
	}
	for _, ev := range in {
		row := l.WT[ev.Index*l.Out : (ev.Index+1)*l.Out]
		p := ev.Payload
		for o, w := range row {
			z[o] += w * p
		}
	}
	for o, v := range z {
		l.pop.vmem[o] += v
	}
	return l.pop.fireSlow(t)
}

// Potential returns neuron i's membrane potential (test hook).
func (l *SpikingDense) Potential(i int) float64 { return l.pop.vmem[i] }

// ConvGeom describes a spiking convolution geometry (same semantics as
// tensor.ConvSpec, duplicated here to keep the event-driven layout local).
type ConvGeom struct {
	InC, InH, InW int
	OutC          int
	K             int // square kernel
	Stride, Pad   int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// convTap is one precomputed scatter destination of an input pixel: the
// offset of the kernel row in WScatter (the tap's (ic,kh,kw) block, OutC
// contiguous weights) and the output spatial base oy*OutW+ox it feeds.
// The base addresses a contiguous block of OutC cells — its OutC output
// channels — in the base-major population (cells base*OutC+oc); output
// channel oc's neuron index stays oc*OutH*OutW+base. Two int32s keep the
// table at 8 bytes per tap; it is immutable after construction and shared
// by every clone. The type lives in internal/kernels (kernels.ConvTap)
// so both planes' fused scatters walk the table directly.
type convTap = kernels.ConvTap

// SpikingConv is a 2-D convolution spiking layer. An input event at
// (ic, iy, ix) scatters its kernel taps into the affected output membrane
// positions; weights are stored as [ic][kh][kw][oc] so the innermost
// output-channel loop is contiguous.
//
// The stride/pad geometry is resolved once at construction into a scatter
// table (taps/tapStart): Step looks up an event's destinations by input
// index instead of re-deriving them with div/mod arithmetic and bounds
// branches per event, which dominated the hot path's cost.
//
// The population is stored base-major — neuron oc*OutH*OutW+base lives in
// cell base*OutC+oc, the float32 plane's layout — so the OutC
// destinations of one tap are one contiguous run that lines up with the
// tap's weight row, and a whole step's events are one
// kernels.ConvScatterEvents64 call.
// Neuron indices, and the order events are emitted in, are CHW as
// before (population.emit). StepSlow keeps the CHW storage it was
// written for; the two never share a presentation (Network.Ref).
type SpikingConv struct {
	Geom ConvGeom
	// WScatter is the re-laid-out kernel: index ((ic*K+kh)*K+kw)*OutC+oc.
	WScatter []float64
	Bias     []float64 // per output channel
	// WScatter32 is the float32 compute plane's kernel copy (same layout).
	WScatter32 []float32

	// taps[tapStart[i]:tapStart[i+1]] are input neuron i's scatter
	// destinations, in (kh,kw) order.
	taps     []convTap
	tapStart []int32
	outHW    int

	pop    *population
	bias   []float64 // pre-expanded per-neuron (CHW) bias: StepSlow's
	bias32 []float32 // float32 copy of bias
}

// NewSpikingConv builds the layer from a row-major OutC×(InC*K*K) weight
// matrix (the dnn.Conv2D layout).
func NewSpikingConv(w []float64, bias []float64, geom ConvGeom, cfg coding.Config) *SpikingConv {
	k, inC, outC := geom.K, geom.InC, geom.OutC
	if len(w) != outC*inC*k*k || len(bias) != outC {
		panic(fmt.Sprintf("snn: conv weight dims %d/%d do not match geom %+v", len(w), len(bias), geom))
	}
	ws := make([]float64, len(w))
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			for kh := 0; kh < k; kh++ {
				for kw := 0; kw < k; kw++ {
					src := ((oc*inC+ic)*k+kh)*k + kw
					dst := ((ic*k+kh)*k+kw)*outC + oc
					ws[dst] = w[src]
				}
			}
		}
	}
	outH, outW := geom.OutH(), geom.OutW()
	n := outC * outH * outW
	l := &SpikingConv{
		Geom: geom, WScatter: ws, Bias: append([]float64(nil), bias...),
		outHW: outH * outW,
		pop:   newPopulation(n, cfg),
		bias:  make([]float64, n),
	}
	for oc := 0; oc < outC; oc++ {
		for i := 0; i < l.outHW; i++ {
			l.bias[oc*l.outHW+i] = bias[oc]
		}
	}
	l.pop.setChannels(outC, l.outHW)
	l.WScatter32 = f32s(ws)
	l.bias32 = f32s(l.bias)
	// Precompute the scatter table: for every input pixel, the (weight
	// row, output base) pairs its events touch under the stride/pad
	// geometry. Same arithmetic as the reference StepSlow, run once.
	nIn := inC * geom.InH * geom.InW
	l.tapStart = make([]int32, nIn+1)
	l.taps = make([]convTap, 0, nIn*k*k)
	for ic := 0; ic < inC; ic++ {
		for iy := 0; iy < geom.InH; iy++ {
			for ix := 0; ix < geom.InW; ix++ {
				for kh := 0; kh < k; kh++ {
					oyNum := iy + geom.Pad - kh
					if oyNum < 0 || oyNum%geom.Stride != 0 {
						continue
					}
					oy := oyNum / geom.Stride
					if oy >= outH {
						continue
					}
					for kw := 0; kw < k; kw++ {
						oxNum := ix + geom.Pad - kw
						if oxNum < 0 || oxNum%geom.Stride != 0 {
							continue
						}
						ox := oxNum / geom.Stride
						if ox >= outW {
							continue
						}
						l.taps = append(l.taps, convTap{
							WOff: int32(((ic*k+kh)*k + kw) * outC),
							Base: int32(oy*outW + ox),
						})
					}
				}
				idx := (ic*geom.InH+iy)*geom.InW + ix
				l.tapStart[idx+1] = int32(len(l.taps))
			}
		}
	}
	return l
}

// Name implements Layer.
func (l *SpikingConv) Name() string { return "sconv" }

// NumNeurons implements Layer.
func (l *SpikingConv) NumNeurons() int { return len(l.pop.vmem) }

// Reset implements Layer.
func (l *SpikingConv) Reset() { l.pop.resetState() }

// Step implements Layer: table-driven event scatter (no div/mod or
// stride/pad branching per event), one fused kernel call for the step's
// whole event list, with the per-channel bias folded into the firing pass.
func (l *SpikingConv) Step(t int, biasScale float64, in []coding.Event) []coding.Event {
	kernels.ConvScatterEvents64(l.pop.vmem, l.WScatter, l.taps, l.tapStart, in, l.Geom.OutC)
	return l.pop.fire(t, l.Bias, biasScale)
}

// Potential returns neuron i's (CHW index) membrane potential on the
// fast path's base-major storage (test hook).
func (l *SpikingConv) Potential(i int) float64 {
	return l.pop.vmem[i%l.outHW*l.Geom.OutC+i/l.outHW]
}

// StepSlow implements RefLayer: the pre-optimization version with a full
// bias sweep up front and per-event stride/pad address arithmetic.
func (l *SpikingConv) StepSlow(t int, biasScale float64, in []coding.Event) []coding.Event {
	g := l.Geom
	outH, outW := g.OutH(), g.OutW()
	outHW := outH * outW
	vmem := l.pop.vmem
	for i, b := range l.bias {
		vmem[i] += b * biasScale
	}
	for _, ev := range in {
		ic := ev.Index / (g.InH * g.InW)
		rem := ev.Index % (g.InH * g.InW)
		iy, ix := rem/g.InW, rem%g.InW
		p := ev.Payload
		for kh := 0; kh < g.K; kh++ {
			oyNum := iy + g.Pad - kh
			if oyNum < 0 || oyNum%g.Stride != 0 {
				continue
			}
			oy := oyNum / g.Stride
			if oy >= outH {
				continue
			}
			for kw := 0; kw < g.K; kw++ {
				oxNum := ix + g.Pad - kw
				if oxNum < 0 || oxNum%g.Stride != 0 {
					continue
				}
				ox := oxNum / g.Stride
				if ox >= outW {
					continue
				}
				wRow := l.WScatter[((ic*g.K+kh)*g.K+kw)*g.OutC : ((ic*g.K+kh)*g.K+kw+1)*g.OutC]
				base := oy*outW + ox
				for oc, w := range wRow {
					vmem[oc*outHW+base] += w * p
				}
			}
		}
	}
	return l.pop.fireSlow(t)
}

// SpikingAvgPool is average pooling realized as an IF population: each
// output neuron integrates 1/window² of every input event in its window
// and fires under the hidden-layer coding dynamics. Pooling neurons have
// no bias.
type SpikingAvgPool struct {
	C, H, W, Window int

	outIdx []int32 // input neuron -> pooled output neuron, precomputed
	pop    *population
	inv    float64
}

// NewSpikingAvgPool constructs the pooling layer.
func NewSpikingAvgPool(c, h, w, window int, cfg coding.Config) *SpikingAvgPool {
	if h%window != 0 || w%window != 0 {
		panic(fmt.Sprintf("snn: pool window %d does not divide %dx%d", window, h, w))
	}
	outH, outW := h/window, w/window
	l := &SpikingAvgPool{
		C: c, H: h, W: w, Window: window,
		outIdx: make([]int32, c*h*w),
		pop:    newPopulation(c*outH*outW, cfg),
		inv:    1 / float64(window*window),
	}
	for ch := 0; ch < c; ch++ {
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				l.outIdx[(ch*h+iy)*w+ix] = int32((ch*outH+iy/window)*outW + ix/window)
			}
		}
	}
	return l
}

// Name implements Layer.
func (l *SpikingAvgPool) Name() string { return "savgpool" }

// NumNeurons implements Layer.
func (l *SpikingAvgPool) NumNeurons() int { return len(l.pop.vmem) }

// Reset implements Layer.
func (l *SpikingAvgPool) Reset() { l.pop.resetState() }

// Step implements Layer using the precomputed input→output index table.
func (l *SpikingAvgPool) Step(t int, _ float64, in []coding.Event) []coding.Event {
	vmem := l.pop.vmem
	for _, ev := range in {
		vmem[l.outIdx[ev.Index]] += ev.Payload * l.inv
	}
	return l.pop.fire(t, nil, 0)
}

// StepSlow implements RefLayer with the original per-event div/mod
// address arithmetic.
func (l *SpikingAvgPool) StepSlow(t int, _ float64, in []coding.Event) []coding.Event {
	outH, outW := l.H/l.Window, l.W/l.Window
	for _, ev := range in {
		c := ev.Index / (l.H * l.W)
		rem := ev.Index % (l.H * l.W)
		iy, ix := rem/l.W, rem%l.W
		oIdx := (c*outH+iy/l.Window)*outW + ix/l.Window
		l.pop.vmem[oIdx] += ev.Payload * l.inv
	}
	return l.pop.fireSlow(t)
}

// SpikingMaxPool is the spiking max-pooling gate of Rueckauer et al.:
// each output position forwards the events of whichever input in its
// window currently has the largest cumulative payload. It has no neurons
// of its own (the winner's spikes pass through).
//
// Winner rule: among the window inputs whose cumulative payload equals
// the window maximum, the gate forwards the lowest-indexed one that
// spiked this step. The spiking requirement is the tie-break fix: a
// silent input that merely ties the maximum must not mute an equally
// maximal input that is actually spiking, otherwise the window goes
// silent for the step and the pooled signal is lost.
//
// Emission order: forwarded events are emitted in ascending window index
// order (not input-event order). Every other layer already emits in
// ascending neuron order, and the batched lockstep simulator relies on
// that invariant — a lane projected out of a batch column stream must see
// events in exactly the sequential order, or downstream float
// accumulation diverges (see internal/README.md).
type SpikingMaxPool struct {
	C, H, W, Window int

	cum     []float64 // cumulative payload per input neuron
	lastPay []float64 // payload of input i's most recent spike
	buf     []coding.Event

	// Precomputed window geometry: winOf[i] is input i's window (== the
	// gate's output index); winMembers[winStart[w]:winStart[w+1]] are
	// window w's input indices in ascending order.
	winOf      []int32
	winStart   []int32
	winMembers []int32

	// seen[i] == stamp marks inputs that spiked during the current Step
	// call (stamp increments per call, so no per-step clearing sweep).
	// winStamp does the same per window, deduplicating the touched list.
	seen     []int
	winStamp []int
	touched  []int32 // windows touched this step, kept sorted
	stamp    int
}

// NewSpikingMaxPool constructs the gate.
func NewSpikingMaxPool(c, h, w, window int) *SpikingMaxPool {
	if h%window != 0 || w%window != 0 {
		panic(fmt.Sprintf("snn: pool window %d does not divide %dx%d", window, h, w))
	}
	outH, outW := h/window, w/window
	nIn, nWin := c*h*w, c*outH*outW
	l := &SpikingMaxPool{
		C: c, H: h, W: w, Window: window,
		cum:        make([]float64, nIn),
		lastPay:    make([]float64, nIn),
		buf:        make([]coding.Event, 0, nWin), // ≤ one event per window per step
		winOf:      make([]int32, nIn),
		winStart:   make([]int32, nWin+1),
		winMembers: make([]int32, 0, nIn),
		seen:       make([]int, nIn),
		winStamp:   make([]int, nWin),
		touched:    make([]int32, 0, nWin),
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				win := (ch*outH+oy)*outW + ox
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						idx := (ch*h+oy*window+ky)*w + ox*window + kx
						l.winOf[idx] = int32(win)
						l.winMembers = append(l.winMembers, int32(idx))
					}
				}
				l.winStart[win+1] = int32(len(l.winMembers))
			}
		}
	}
	return l
}

// Name implements Layer.
func (l *SpikingMaxPool) Name() string { return "smaxpool" }

// NumNeurons implements Layer.
func (l *SpikingMaxPool) NumNeurons() int { return 0 }

// Reset implements Layer.
func (l *SpikingMaxPool) Reset() {
	for i := range l.cum {
		l.cum[i] = 0
	}
}

// winner returns the input index the window forwards this step: the
// lowest-indexed member at the cumulative maximum that spiked (seen ==
// stamp), or -1 when every maximal member is silent.
func (l *SpikingMaxPool) winner(members []int32) int {
	best := l.cum[members[0]]
	for _, idx := range members[1:] {
		if c := l.cum[idx]; c > best {
			best = c
		}
	}
	for _, idx := range members {
		if l.cum[idx] == best && l.seen[idx] == l.stamp {
			return int(idx)
		}
	}
	return -1
}

// insertSorted inserts w into the ascending slice s and returns it.
// Callers never insert duplicates (they dedupe with a stamp first). The
// input events arrive in ascending neuron order, so the windows are
// discovered nearly sorted and the memmove is almost always empty.
func insertSorted(s []int32, w int32) []int32 {
	i := len(s)
	for i > 0 && s[i-1] > w {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = w
	return s
}

// Step implements Layer using the precomputed window tables: accumulate
// the step's events, then forward each touched window's spiking winner,
// in ascending window order.
func (l *SpikingMaxPool) Step(t int, _ float64, in []coding.Event) []coding.Event {
	l.buf = l.buf[:0]
	l.stamp++
	l.touched = l.touched[:0]
	for _, ev := range in {
		l.cum[ev.Index] += ev.Payload
		l.seen[ev.Index] = l.stamp
		l.lastPay[ev.Index] = ev.Payload
		if w := l.winOf[ev.Index]; l.winStamp[w] != l.stamp {
			l.winStamp[w] = l.stamp
			l.touched = insertSorted(l.touched, w)
		}
	}
	for _, w := range l.touched {
		members := l.winMembers[l.winStart[w]:l.winStart[w+1]]
		if win := l.winner(members); win >= 0 {
			l.buf = append(l.buf, coding.Event{Index: int(w), Payload: l.lastPay[win]})
		}
	}
	return l.buf
}

// StepSlow implements RefLayer with the original per-event div/mod window
// arithmetic (and the same winner rule and ascending-window emission
// order as Step): after accumulating the step's events it scans every
// window in index order and forwards its spiking winner, if any.
func (l *SpikingMaxPool) StepSlow(t int, _ float64, in []coding.Event) []coding.Event {
	outH, outW := l.H/l.Window, l.W/l.Window
	l.buf = l.buf[:0]
	l.stamp++
	for _, ev := range in {
		l.cum[ev.Index] += ev.Payload
		l.seen[ev.Index] = l.stamp
		l.lastPay[ev.Index] = ev.Payload
	}
	for c := 0; c < l.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				first := (c*l.H+oy*l.Window)*l.W + ox*l.Window
				best, winner := l.cum[first], -1
				for ky := 0; ky < l.Window; ky++ {
					for kx := 0; kx < l.Window; kx++ {
						idx := (c*l.H+oy*l.Window+ky)*l.W + ox*l.Window + kx
						if l.cum[idx] > best {
							best = l.cum[idx]
						}
					}
				}
				for ky := 0; ky < l.Window && winner < 0; ky++ {
					for kx := 0; kx < l.Window; kx++ {
						idx := (c*l.H+oy*l.Window+ky)*l.W + ox*l.Window + kx
						if l.cum[idx] == best && l.seen[idx] == l.stamp {
							winner = idx
							break
						}
					}
				}
				if winner >= 0 {
					l.buf = append(l.buf, coding.Event{
						Index:   (c*outH+oy)*outW + ox,
						Payload: l.lastPay[winner],
					})
				}
			}
		}
	}
	return l.buf
}

// OutputLayer is the readout: a dense weight matrix whose neurons
// accumulate membrane potential but never fire. Class scores are the
// accumulated potentials, the standard decoding for converted SNNs.
type OutputLayer struct {
	In, Out int
	WT      []float64
	Bias    []float64
	// WT32/Bias32 are the float32 compute plane's copies (same layout).
	WT32   []float32
	Bias32 []float32

	pot []float64
}

// NewOutputLayer builds the readout from a row-major Out×In matrix.
func NewOutputLayer(w []float64, bias []float64, in, out int) *OutputLayer {
	if len(w) != in*out || len(bias) != out {
		panic(fmt.Sprintf("snn: output weight dims %d/%d do not match %dx%d", len(w), len(bias), out, in))
	}
	wt := make([]float64, in*out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			wt[i*out+o] = w[o*in+i]
		}
	}
	return &OutputLayer{
		In: in, Out: out, WT: wt, Bias: append([]float64(nil), bias...),
		WT32: f32s(wt), Bias32: f32s(bias),
		pot: make([]float64, out),
	}
}

// NumNeurons returns the readout population size.
func (l *OutputLayer) NumNeurons() int { return l.Out }

// Reset clears the accumulators.
func (l *OutputLayer) Reset() {
	for i := range l.pot {
		l.pot[i] = 0
	}
}

// Step integrates the incoming events plus the rate-matched bias current,
// in the same events-then-bias order the fused hidden layers use. The
// readout has no firing pass to fold the bias into, but it is O(classes),
// not O(population), so it stays a plain sweep.
func (l *OutputLayer) Step(_ int, biasScale float64, in []coding.Event) {
	pot := l.pot
	for _, ev := range in {
		row := l.WT[ev.Index*l.Out : (ev.Index+1)*l.Out]
		p := ev.Payload
		for o, w := range row {
			pot[o] += w * p
		}
	}
	for o, b := range l.Bias {
		pot[o] += b * biasScale
	}
}

// StepSlow is the reference readout step (bias sweep before the event
// scatter, as in the pre-optimization implementation).
func (l *OutputLayer) StepSlow(_ int, biasScale float64, in []coding.Event) {
	for o, b := range l.Bias {
		l.pot[o] += b * biasScale
	}
	for _, ev := range in {
		row := l.WT[ev.Index*l.Out : (ev.Index+1)*l.Out]
		p := ev.Payload
		for o, w := range row {
			l.pot[o] += w * p
		}
	}
}

// Potentials returns the accumulated class scores (live slice; callers
// must not mutate).
func (l *OutputLayer) Potentials() []float64 { return l.pot }
