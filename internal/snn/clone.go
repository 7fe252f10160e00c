package snn

import (
	"fmt"

	"burstsnn/internal/coding"
)

// Replicating a converted network: every layer can stamp out a copy that
// shares the read-only weight arrays but owns fresh neuron state (membrane
// potentials, burst state, event buffers). Serving replica pools and
// parallel evaluation use this instead of re-running the conversion (and
// its activation-recording pass) once per worker.

// CloneableLayer is a Layer that supports weight-sharing replication.
// All layers built by the converter implement it.
type CloneableLayer interface {
	Layer
	// CloneLayer returns an independent copy: shared weights, fresh state.
	CloneLayer() Layer
}

// clone returns a population with fresh state and the same layout.
func (p *population) clone() *population {
	c := newPopulation(len(p.vmem), p.cfg)
	c.setChannels(p.outC, p.hw)
	return c
}

// CloneLayer implements CloneableLayer. The one-tap-per-input scatter
// table is immutable, so clones share it like the weights.
func (l *SpikingDense) CloneLayer() Layer {
	return &SpikingDense{
		In: l.In, Out: l.Out, WT: l.WT, Bias: l.Bias,
		WT32: l.WT32, Bias32: l.Bias32,
		taps: l.taps, tapStart: l.tapStart,
		pop: l.pop.clone(),
		z:   make([]float64, l.Out),
	}
}

// CloneLayer implements CloneableLayer. The scatter table (taps/tapStart)
// is immutable after construction, so clones share it like the weights.
func (l *SpikingConv) CloneLayer() Layer {
	return &SpikingConv{
		Geom: l.Geom, WScatter: l.WScatter, Bias: l.Bias,
		WScatter32: l.WScatter32,
		taps:       l.taps, tapStart: l.tapStart, outHW: l.outHW,
		pop:  l.pop.clone(),
		bias: l.bias, bias32: l.bias32,
	}
}

// CloneLayer implements CloneableLayer (the outIdx table is shared).
func (l *SpikingAvgPool) CloneLayer() Layer {
	return &SpikingAvgPool{
		C: l.C, H: l.H, W: l.W, Window: l.Window,
		outIdx: l.outIdx,
		pop:    l.pop.clone(),
		inv:    l.inv,
	}
}

// CloneLayer implements CloneableLayer. Window geometry tables are
// shared; cumulative payloads and the spike stamps are fresh state.
func (l *SpikingMaxPool) CloneLayer() Layer {
	nIn := l.C * l.H * l.W
	nWin := len(l.winStart) - 1
	return &SpikingMaxPool{
		C: l.C, H: l.H, W: l.W, Window: l.Window,
		cum:     make([]float64, nIn),
		lastPay: make([]float64, nIn),
		buf:     make([]coding.Event, 0, cap(l.buf)),
		winOf:   l.winOf, winStart: l.winStart, winMembers: l.winMembers,
		seen:     make([]int, nIn),
		winStamp: make([]int, nWin),
		touched:  make([]int32, 0, nWin),
	}
}

// Clone returns a copy of the readout with shared weights and zeroed
// accumulators.
func (l *OutputLayer) Clone() *OutputLayer {
	return &OutputLayer{
		In: l.In, Out: l.Out, WT: l.WT, Bias: l.Bias,
		WT32: l.WT32, Bias32: l.Bias32,
		pot: make([]float64, l.Out),
	}
}

// Clone replicates the network: the copy shares every weight array with
// the original but has its own encoder, neuron state, and readout
// accumulators, so the two can simulate different images concurrently.
// Probes are not copied (the Ref flag is). It fails if the encoder or a
// layer does not support replication (all standard converter output does).
func (n *Network) Clone() (*Network, error) {
	enc, ok := n.Encoder.(coding.CloneableEncoder)
	if !ok {
		return nil, fmt.Errorf("snn: encoder %T does not support cloning", n.Encoder)
	}
	out := &Network{
		Encoder: enc.Clone(),
		Layers:  make([]Layer, len(n.Layers)),
		Output:  n.Output.Clone(),
		Ref:     n.Ref,
	}
	for i, l := range n.Layers {
		c, ok := l.(CloneableLayer)
		if !ok {
			return nil, fmt.Errorf("snn: layer %d (%s) does not support cloning", i, l.Name())
		}
		out.Layers[i] = c.CloneLayer()
	}
	return out, nil
}
