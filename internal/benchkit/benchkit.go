// Package benchkit defines the canonical synthetic workloads for the
// simulator hot-path benchmarks. Both the go-test benchmark suite
// (bench_test.go) and the repository benchmark's per-layer ladder
// (benchmark/ladder.go) build their layers and event streams here, so a
// ladder rung always times exactly the workload its test benchmark does.
package benchkit

import (
	"burstsnn/internal/coding"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
)

// HotpathConvGeom is the canonical conv micro-benchmark geometry.
var HotpathConvGeom = snn.ConvGeom{InC: 8, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}

// Canonical dense micro-benchmark shape and pooling stage shape.
const (
	HotpathDenseIn  = 512
	HotpathDenseOut = 256
	HotpathPoolC    = 16
	HotpathPoolH    = 16
	HotpathPoolW    = 16
)

// Randn returns n deterministic N(0, std) weights.
func Randn(n int, std float64, seed uint64) []float64 {
	r := mathx.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm(0, std)
	}
	return v
}

// Events builds a deterministic event stream covering ~frac of the n
// input indices with coarse payloads.
func Events(n int, frac float64, seed uint64) []coding.Event {
	r := mathx.NewRNG(seed)
	var evs []coding.Event
	for i := 0; i < n; i++ {
		if r.Bernoulli(frac) {
			evs = append(evs, coding.Event{Index: i, Payload: 0.25 * float64(1+r.Intn(3))})
		}
	}
	return evs
}

// HotpathConv builds the canonical conv layer (burst coding) and its
// 10%-density input stream.
func HotpathConv() (*snn.SpikingConv, []coding.Event) {
	g := HotpathConvGeom
	layer := snn.NewSpikingConv(
		Randn(g.OutC*g.InC*g.K*g.K, 0.2, 1), Randn(g.OutC, 0.05, 2),
		g, coding.DefaultConfig(coding.Burst))
	return layer, Events(g.InC*g.InH*g.InW, 0.1, 3)
}

// HotpathDense builds the canonical dense layer (burst coding) and its
// 10%-density input stream.
func HotpathDense() (*snn.SpikingDense, []coding.Event) {
	layer := snn.NewSpikingDense(
		Randn(HotpathDenseIn*HotpathDenseOut, 0.1, 4), Randn(HotpathDenseOut, 0.05, 5),
		HotpathDenseIn, HotpathDenseOut, coding.DefaultConfig(coding.Burst))
	return layer, Events(HotpathDenseIn, 0.1, 6)
}

// HotpathPools builds the canonical pooling stages and their 15%-density
// input stream.
func HotpathPools() (*snn.SpikingAvgPool, *snn.SpikingMaxPool, []coding.Event) {
	avg := snn.NewSpikingAvgPool(HotpathPoolC, HotpathPoolH, HotpathPoolW, 2, coding.DefaultConfig(coding.Burst))
	maxp := snn.NewSpikingMaxPool(HotpathPoolC, HotpathPoolH, HotpathPoolW, 2)
	return avg, maxp, Events(HotpathPoolC*HotpathPoolH*HotpathPoolW, 0.15, 7)
}

// HotpathBatchB is the canonical lane count of the batched hot-path
// workloads (the serving default MaxBatch). The frozen benchmark names
// it: its batch8 rungs and its bare batcher's MaxBatch use it.
const HotpathBatchB = 8

// Lanes is a batch of independent layers: lane i is its own
// weight-sharing copy of one canonical layer, with its own neuron state,
// as each replica of a serving pool is.
type Lanes []snn.Layer

// Step steps lane i's layer at time t on in[i], for every i < lanes.
func (l Lanes) Step(t int, biasScale float64, lanes int, in [][]coding.Event) {
	for i, layer := range l[:lanes] {
		layer.Step(t, biasScale, in[i])
	}
}

// batchLanes builds b lanes over layer and one 40%-density input stream
// per lane (the occupancy a phase-coded input presents) over n input
// indices, lane i's drawn from its own seed.
func batchLanes(layer snn.CloneableLayer, n, b int, seed uint64) (Lanes, [][]coding.Event) {
	lanes, in := make(Lanes, b), make([][]coding.Event, b)
	for i := range lanes {
		lanes[i] = layer.CloneLayer()
		in[i] = Events(n, 0.4, seed<<16+uint64(i))
	}
	return lanes, in
}

// HotpathConvBatch builds b lanes of the canonical conv layer and their
// input streams. It stays because the frozen benchmark names it: its
// snn.conv_batch8_step_ns rung times what b lanes cost on the sequential
// engine that serves.
func HotpathConvBatch(b int) (Lanes, [][]coding.Event) {
	g := HotpathConvGeom
	layer, _ := HotpathConv()
	return batchLanes(layer, g.InC*g.InH*g.InW, b, 8)
}

// HotpathDenseBatch builds b lanes of the canonical dense layer and their
// input streams. It stays because the frozen benchmark names it (the
// snn.dense_batch8_step_ns rung).
func HotpathDenseBatch(b int) (Lanes, [][]coding.Event) {
	layer, _ := HotpathDense()
	return batchLanes(layer, HotpathDenseIn, b, 9)
}
