// Package benchkit defines the canonical synthetic workloads for the
// simulator hot-path benchmarks. Both the go-test benchmark suite
// (bench_test.go) and the snnbench -hotpath artifact mode build their
// layers and event streams here, so the perf trajectory recorded in CI
// always measures exactly the workload the test benchmarks measure.
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
// workloads (the serving default MaxBatch).
const HotpathBatchB = 8

// BatchEventStream builds a deterministic column stream over n neuron
// indices and b lanes: each (index, lane) spikes with probability frac,
// with the per-lane payload perturbation making a perLane fraction of
// columns non-uniform (the mid-burst case). The stream exercises every
// scatter specialization: single-lane, partial, and full-uniform columns.
func BatchEventStream(n, b int, frac float64, seed uint64) *coding.BatchEvents32 {
	r := mathx.NewRNG(seed)
	ev := &coding.BatchEvents32{}
	ev.Grow(n, n*b)
	for i := 0; i < n; i++ {
		pay := 0.25 * float32(1+r.Intn(3))
		for s := 0; s < b; s++ {
			if r.Bernoulli(frac) {
				p := pay
				if r.Bernoulli(0.25) {
					p *= 2 // non-uniform lane payload
				}
				ev.Add(int32(s), p)
			}
		}
		ev.Commit(int32(i))
	}
	return ev
}

// HotpathConvBatch builds the B-lane batched variant of the canonical
// conv layer and a 40%-per-lane-density column stream (the occupancy a
// phase-coded input presents).
func HotpathConvBatch(b int) (snn.BatchLayer32, *coding.BatchEvents32) {
	g := HotpathConvGeom
	layer, _ := HotpathConv()
	return layer.NewBatch32(b), BatchEventStream(g.InC*g.InH*g.InW, b, 0.4, 8)
}

// HotpathDenseBatch builds the B-lane batched variant of the canonical
// dense layer and its column stream.
func HotpathDenseBatch(b int) (snn.BatchLayer32, *coding.BatchEvents32) {
	layer, _ := HotpathDense()
	return layer.NewBatch32(b), BatchEventStream(HotpathDenseIn, b, 0.4, 9)
}
