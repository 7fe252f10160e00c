// Package snn is the event-driven spiking-network simulator. It executes
// converted networks of integrate-and-fire neurons with reset-by-
// subtraction (Eq. 4), payload spikes (Eq. 5), and per-scheme threshold
// dynamics (Eq. 6-9 via internal/coding).
//
// Propagation is event-driven: each layer consumes a sparse list of
// (index, payload) events, scatters weighted payloads into its membrane
// accumulators, and emits its own events. Within one time step events
// flow through the whole stack (no axonal delay), which is the standard
// synchronous model in the DNN→SNN conversion literature and makes the
// phase oscillation Π(t) globally consistent across layers.
package snn

import (
	"fmt"
	"math/bits"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

// population holds the integrate-and-fire state for one layer's neurons:
// membrane potentials, burst state, and the fired bitmap the firing pass
// hands to emission.
//
// State is kept in storage order, one cell per neuron. Most layers store
// neuron i in cell i; a conv layer stores its population base-major
// (setChannels, see SpikingConv) so that one scatter tap is one
// contiguous update. Events always leave in ascending neuron order
// whatever the storage order — every downstream accumulation depends on
// it.
//
// g has two readings, fixed by which firing pass owns the population for
// a presentation (Network.Ref does not change between Resets). The
// pure-IF burst fast path keeps it folded: g[c] is the burst function
// the cell will use at its next step, h = fired ? β·g : 1, so the pass
// needs no firedPrev read and no second unpredictable branch; the same
// product β·g is formed, one step earlier, so every threshold is
// bit-identical. fireSlow and the leaky path keep Eq. 8 as written:
// g[c] is g(t−1) and firedPrev[c] says whether it is multiplied. Both
// readings reset to the same state (g = 1, firedPrev = false).
type population struct {
	cfg       coding.Config
	vmem      []float64
	g         []float64
	firedPrev []bool
	// pay[c] is cell c's threshold at the current step — the payload of
	// its spike if it fired. Burst populations only: every other scheme's
	// threshold is one value per step.
	pay []float64
	// mask is the current step's fired bitmap in storage order.
	mask []uint64
	// A base-major conv population stores neuron oc·hw + base in cell
	// base·outC + oc; outC is 0 for the identity layout. recip is
	// ⌈2^64/outC⌉, which turns a cell into its base with one multiply,
	// and runEnd[oc] is channel oc's write cursor in buf during emission.
	outC, hw int
	recip    uint64
	runEnd   []int
	buf      []coding.Event
}

func newPopulation(n int, cfg coding.Config) *population {
	p := &population{
		cfg:       cfg,
		vmem:      make([]float64, n),
		g:         make([]float64, n),
		firedPrev: make([]bool, n),
		mask:      make([]uint64, (n+63)/64),
		// A neuron fires at most once per step, so n is the event-buffer
		// high-watermark; pre-sizing keeps the steady-state hot path
		// allocation-free (see internal/README.md).
		buf: make([]coding.Event, 0, n),
	}
	if cfg.UsesBurstState() {
		p.pay = make([]float64, n)
	}
	p.resetState()
	return p
}

// setChannels installs the base-major layout of outC channels of hw
// neurons each. One channel is the identity layout.
func (p *population) setChannels(outC, hw int) {
	if outC < 2 {
		return
	}
	p.outC, p.hw = outC, hw
	p.recip = ^uint64(0)/uint64(outC) + 1
	p.runEnd = make([]int, outC)
}

func (p *population) resetState() {
	for i := range p.vmem {
		p.vmem[i] = 0
		p.g[i] = 1
		p.firedPrev[i] = false
	}
}

// fire runs the threshold test for every neuron at time t after the
// layer's synaptic events have been scattered into vmem, and returns the
// emitted events in ascending neuron order. A neuron fires at most once
// per time step.
//
// This is the fused hot path: the layer's constant bias current, the
// leaky-IF decay, the burst update, and the reset-by-subtraction
// threshold test all happen in one sweep over the cells, in storage
// order. bias is the per-channel current in storage order with period
// len(bias) — cell c receives bias[c mod len(bias)]·biasScale — so a
// base-major conv passes its OutC channel biases and a dense layer its
// per-neuron ones; nil for bias-free layers. The pure-IF sweeps are the
// kernels.FireCells64 pair (packed on the avx2 tier, today's scalar loop
// elsewhere; bit-identical either way). For non-burst schemes the
// threshold does not depend on per-neuron state, so it is computed once
// per step — this hoists the math.Pow inside the phase oscillation Π(t)
// out of the per-neuron loop.
func (p *population) fire(t int, bias []float64, biasScale float64) []coding.Event {
	useBurst := p.cfg.UsesBurstState()
	leak := p.cfg.Leak
	vmem := p.vmem
	var th float64 // the step's threshold and payload (non-burst schemes)
	if !useBurst {
		th = p.cfg.Threshold(t, 1)
	}
	switch {
	case leak != 0:
		keep := 1 - leak
		var w uint64
		bi := 0
		for c, v := range vmem {
			if bias != nil {
				v += bias[bi] * biasScale
				if bi++; bi == len(bias) {
					bi = 0
				}
			}
			if leak > 0 {
				// Leaky-IF extension: V(t) = (1-ℓ)(V(t-1)+z(t)).
				v *= keep
			}
			cth := th
			if useBurst {
				// Eq. 8: g(t) depends on whether the neuron fired at t-1;
				// Eq. 9: V_th(t) = g(t)·v_th.
				g := coding.NextG(p.g[c], p.firedPrev[c], p.cfg.Beta)
				p.g[c] = g
				cth = g * p.cfg.VTh
				p.pay[c] = cth
			}
			if v >= cth {
				// Eq. 4 (reset-by-subtraction): the membrane keeps the
				// residual, and the spike carries exactly the subtracted
				// amount (Eq. 5 payload).
				v -= cth
				p.firedPrev[c] = true
				w |= 1 << (uint(c) & 63)
			} else {
				p.firedPrev[c] = false
			}
			vmem[c] = v
			if c&63 == 63 {
				p.mask[c>>6] = w
				w = 0
			}
		}
		if len(vmem)&63 != 0 {
			p.mask[len(vmem)>>6] = w
		}
	case useBurst:
		kernels.FireCellsBurst64(vmem, p.g, p.pay, p.mask, bias, biasScale, p.cfg.Beta, p.cfg.VTh)
	default:
		kernels.FireCells64(vmem, p.mask, bias, biasScale, th)
	}
	return p.emit(th)
}

// emit turns the storage-order fired bitmap into the step's events, in
// ascending neuron order, at a cost proportional to the spikes (plus one
// word per 64 cells): one walk over the bitmap's set bits.
//
// In a base-major population storage order is not neuron order, but
// within one channel it is, so the walk drops each spike at the end of
// its channel's run — channel oc's run starts at oc·hw in buf, room for
// every neuron it has — and closing the gaps between the runs (at most
// outC−1 copies) leaves the events in ascending neuron order.
func (p *population) emit(th float64) []coding.Event {
	if p.runEnd != nil {
		return p.emitRuns(th)
	}
	buf, pays := p.buf[:cap(p.buf)], p.pay
	k := 0
	for wi, w := range p.mask {
		for ; w != 0; w &= w - 1 {
			c := wi<<6 | bits.TrailingZeros64(w)
			pay := th
			if pays != nil {
				pay = pays[c]
			}
			buf[k] = coding.Event{Index: c, Payload: pay}
			k++
		}
	}
	p.buf = buf[:k]
	return p.buf
}

// emitRuns is emit's channel-run walk for a base-major population.
func (p *population) emitRuns(th float64) []coding.Event {
	buf, pays := p.buf[:cap(p.buf)], p.pay
	outC, hw, recip, end := p.outC, p.hw, p.recip, p.runEnd
	for oc := range end {
		end[oc] = oc * hw
	}
	for wi, w := range p.mask {
		for ; w != 0; w &= w - 1 {
			c := wi<<6 | bits.TrailingZeros64(w)
			pay := th
			if pays != nil {
				pay = pays[c]
			}
			base, _ := bits.Mul64(recip, uint64(c)) // c / outC
			oc := c - int(base)*outC
			i := end[oc]
			buf[i] = coding.Event{Index: oc*hw + int(base), Payload: pay}
			end[oc] = i + 1
		}
	}
	k := end[0]
	for oc := 1; oc < outC; oc++ {
		k += copy(buf[k:], buf[oc*hw:end[oc]])
	}
	p.buf = buf[:k]
	return p.buf
}

// fireSlow is the pre-optimization reference implementation of fire: the
// layer has already integrated bias and inputs into vmem, and leak,
// burst update, and threshold test run as separate full-population passes
// with a coding.Threshold call per neuron. Kept verbatim so the
// equivalence suite can pin the fused path against it.
func (p *population) fireSlow(t int) []coding.Event {
	p.buf = p.buf[:0]
	useBurst := p.cfg.UsesBurstState()
	if p.cfg.Leak > 0 {
		keep := 1 - p.cfg.Leak
		for i := range p.vmem {
			p.vmem[i] *= keep
		}
	}
	for i := range p.vmem {
		g := p.g[i]
		if useBurst {
			g = coding.NextG(g, p.firedPrev[i], p.cfg.Beta)
			p.g[i] = g
		}
		th := p.cfg.Threshold(t, g)
		if p.vmem[i] >= th {
			p.vmem[i] -= th
			p.firedPrev[i] = true
			p.buf = append(p.buf, coding.Event{Index: i, Payload: th})
		} else {
			p.firedPrev[i] = false
		}
	}
	return p.buf
}

// Layer is one spiking stage.
type Layer interface {
	// Name identifies the layer kind.
	Name() string
	// NumNeurons returns the population size (0 for stateless gates).
	NumNeurons() int
	// Step consumes the presynaptic events of time t and returns the
	// layer's own events. biasScale modulates the layer's constant bias
	// current to match the input encoder's information rate. The
	// returned slice may be reused.
	Step(t int, biasScale float64, in []coding.Event) []coding.Event
	// Reset clears all neuron state for a new input presentation.
	Reset()
}

// RefLayer is a Layer that also retains the pre-optimization reference
// implementation of Step. StepSlow must be semantically equivalent to
// Step — same spikes, same payloads, same early-exit behaviour — while
// keeping the original algorithmic structure (per-event div/mod address
// arithmetic, separate bias/integration/fire passes). Every layer the
// converter builds implements it; the equivalence suite runs whole
// networks through both paths and asserts identical outcomes.
type RefLayer interface {
	Layer
	// StepSlow is the reference implementation of Step.
	StepSlow(t int, biasScale float64, in []coding.Event) []coding.Event
}

// Probe observes the events a layer emitted at time t.
type Probe func(t int, events []coding.Event)

// Network is a stack of spiking layers fed by an input encoder and read
// out by a non-spiking output accumulator.
type Network struct {
	Encoder coding.InputEncoder
	Layers  []Layer
	Output  *OutputLayer

	// Ref switches every layer to its reference (slow) Step
	// implementation — the equivalence-testing and benchmarking baseline.
	// Layers that do not implement RefLayer make Step panic under Ref.
	// The flag is fixed for a presentation: set it before Reset, not
	// between Steps. The two paths keep a conv neuron in different cells
	// and read the burst state differently (see population), so state one
	// wrote means nothing to the other; Reset is where they agree.
	Ref bool

	probes map[int]Probe // layer index -> probe; -1 probes the encoder
}

// AttachProbe registers a spike observer for a layer index. Index -1
// observes the input encoder's events; len(Layers) is invalid because the
// output layer never spikes.
func (n *Network) AttachProbe(layer int, p Probe) {
	if layer < -1 || layer >= len(n.Layers) {
		panic(fmt.Sprintf("snn: probe index %d out of range", layer))
	}
	if n.probes == nil {
		n.probes = map[int]Probe{}
	}
	n.probes[layer] = p
}

// NumNeurons returns the total neuron count: input, hidden, and output.
// This is the denominator of the paper's spiking-density metric.
func (n *Network) NumNeurons() int {
	total := n.Encoder.Size()
	for _, l := range n.Layers {
		total += l.NumNeurons()
	}
	total += n.Output.NumNeurons()
	return total
}

// Reset prepares the network for a new input image.
func (n *Network) Reset(image []float64) {
	n.Encoder.Reset(image)
	for _, l := range n.Layers {
		l.Reset()
	}
	n.Output.Reset()
}

// StepStats reports what happened during a single time step.
type StepStats struct {
	InputEvents  int
	HiddenSpikes int
	// Predicted is the argmax of the output accumulator after the step.
	Predicted int
}

// Step advances the network by one time step and returns its statistics.
func (n *Network) Step(t int) StepStats {
	events := n.Encoder.Step(t)
	if p := n.probes[-1]; p != nil {
		p(t, events)
	}
	biasScale := n.Encoder.BiasScale(t)
	st := StepStats{InputEvents: len(events)}
	for li, l := range n.Layers {
		if n.Ref {
			r, ok := l.(RefLayer)
			if !ok {
				panic(fmt.Sprintf("snn: layer %d (%s) has no reference path", li, l.Name()))
			}
			events = r.StepSlow(t, biasScale, events)
		} else {
			events = l.Step(t, biasScale, events)
		}
		if p := n.probes[li]; p != nil {
			p(t, events)
		}
		st.HiddenSpikes += len(events)
	}
	if n.Ref {
		n.Output.StepSlow(t, biasScale, events)
	} else {
		n.Output.Step(t, biasScale, events)
	}
	st.Predicted = mathx.ArgMax(n.Output.Potentials())
	return st
}

// Result summarizes a full presentation of one input.
type Result struct {
	// PredictedAt[t] is the output argmax after step t.
	PredictedAt []int
	// InputSpikes counts encoder events over the run (0 when the encoder
	// is analog, i.e. real coding).
	InputSpikes int
	// HiddenSpikes counts all spikes emitted by hidden layers.
	HiddenSpikes int
	// Steps is the number of simulated time steps.
	Steps int
}

// TotalSpikes returns the spike count the paper reports: input spikes (if
// the encoder emits physical spikes) plus hidden-layer spikes.
func (r Result) TotalSpikes() int { return r.InputSpikes + r.HiddenSpikes }

// FinalPrediction returns the prediction after the last step, or -1 for
// an empty run.
func (r Result) FinalPrediction() int {
	if len(r.PredictedAt) == 0 {
		return -1
	}
	return r.PredictedAt[len(r.PredictedAt)-1]
}

// Run presents image for steps time steps and collects the result.
func (n *Network) Run(image []float64, steps int) Result {
	return n.RunInto(image, steps, make([]int, steps))
}

// RunInto is Run with a caller-owned per-step prediction buffer, so tight
// evaluation loops can present many images without a per-image
// allocation. predictedAt must have length steps; the returned Result
// aliases it.
func (n *Network) RunInto(image []float64, steps int, predictedAt []int) Result {
	if len(predictedAt) != steps {
		panic(fmt.Sprintf("snn: prediction buffer holds %d steps, want %d", len(predictedAt), steps))
	}
	n.Reset(image)
	res := Result{Steps: steps, PredictedAt: predictedAt}
	countInput := n.Encoder.CountsAsSpikes()
	for t := 0; t < steps; t++ {
		st := n.Step(t)
		if countInput {
			res.InputSpikes += st.InputEvents
		}
		res.HiddenSpikes += st.HiddenSpikes
		res.PredictedAt[t] = st.Predicted
	}
	return res
}
