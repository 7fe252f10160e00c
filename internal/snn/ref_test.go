package snn

import (
	"math"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/mathx"
	"burstsnn/internal/tensor"
)

// equivGeom is the conv geometry used by the equivalence network: every
// layer kind the converter can emit, small enough to run 16 hybrids in
// milliseconds.
var equivGeom = ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1}

// equivDense is equivGeom's hidden dense width.
const equivDense = 12

// moreEquivGeoms are the conv geometries the fast-vs-reference corpus
// runs besides equivGeom (whose four channels are a packed width on the
// avx2 tier): three output channels (no packed form: the generic scatter
// and fire loops on every tier), a stride-2 conv (ragged tap lists, a
// 4×4 output map) and sixteen channels (the widest unrolled scatter body).
// Each also sets its hidden dense layer's width, which is that layer's
// scatter OutC.
var moreEquivGeoms = []struct {
	name  string
	geom  ConvGeom
	dense int
}{
	{"c3", ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 3, K: 3, Stride: 1, Pad: 1}, 10},
	{"c8s2", ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 8, K: 3, Stride: 2, Pad: 1}, 8},
	{"c16", ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 16, K: 3, Stride: 1, Pad: 1}, 24},
}

// buildEquivNetwork assembles conv → maxpool → avgpool → dense → output
// on equivGeom with deterministic pseudo-random weights under the given
// hybrid.
func buildEquivNetwork(t *testing.T, input, hidden coding.Config, seed uint64) *Network {
	return buildEquivNetworkGeom(t, equivGeom, equivDense, input, hidden, seed)
}

// gaussians returns a draw of n N(0, std) weights from r.
func gaussians(r *mathx.RNG) func(n int, std float64) []float64 {
	return func(n int, std float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm(0, std)
		}
		return v
	}
}

func buildEquivNetworkGeom(t *testing.T, g ConvGeom, denseOut int, input, hidden coding.Config, seed uint64) *Network {
	t.Helper()
	randn := gaussians(mathx.NewRNG(seed))
	enc, err := coding.NewInputEncoder(input, g.InC*g.InH*g.InW, seed)
	if err != nil {
		t.Fatalf("encoder: %v", err)
	}
	conv := NewSpikingConv(randn(g.OutC*g.InC*g.K*g.K, 0.35), randn(g.OutC, 0.05), g, hidden)
	maxp := NewSpikingMaxPool(g.OutC, g.OutH(), g.OutW(), 2)
	avgp := NewSpikingAvgPool(g.OutC, g.OutH()/2, g.OutW()/2, 2, hidden)
	denseIn := g.OutC * g.OutH() / 4 * g.OutW() / 4
	dense := NewSpikingDense(randn(denseIn*denseOut, 0.4), randn(denseOut, 0.05), denseIn, denseOut, hidden)
	out := NewOutputLayer(randn(denseOut*4, 0.5), randn(4, 0.05), denseOut, 4)
	return &Network{
		Encoder: enc,
		Layers:  []Layer{conv, maxp, avgp, dense},
		Output:  out,
	}
}

// buildLeNetEquiv assembles the LeNetMini shape — dense-mode conv →
// avg-pool → base-major conv → avg-pool → dense → output — so one network
// runs the gather and the base-major scatter with channel-run emission.
// The first conv's 12-wide output is one 8-cell group plus a 4-column tail
// on avx512 and three 4-cell groups on avx2.
func buildLeNetEquiv(t *testing.T, input, hidden coding.Config, seed uint64) *Network {
	t.Helper()
	randn := gaussians(mathx.NewRNG(seed))
	g1 := ConvGeom{InC: 2, InH: 12, InW: 12, OutC: 8, K: 3, Stride: 1, Pad: 1}
	g2 := ConvGeom{InC: 8, InH: 6, InW: 6, OutC: 16, K: 3, Stride: 1, Pad: 1}
	enc, err := coding.NewInputEncoder(input, g1.InC*g1.InH*g1.InW, seed)
	if err != nil {
		t.Fatalf("encoder: %v", err)
	}
	conv1 := NewSpikingConv(randn(8*2*9, 0.35), randn(8, 0.05), g1, hidden)
	if !conv1.UseDenseMode() {
		t.Fatal("a stride-1 conv with finite weights refused dense mode")
	}
	conv2 := NewSpikingConv(randn(16*8*9, 0.25), randn(16, 0.05), g2, hidden)
	return &Network{
		Encoder: enc,
		Layers: []Layer{
			conv1, NewSpikingAvgPool(8, 12, 12, 2, hidden),
			conv2, NewSpikingAvgPool(16, 6, 6, 2, hidden),
			NewSpikingDense(randn(144*24, 0.3), randn(24, 0.05), 144, 24, hidden),
		},
		Output: NewOutputLayer(randn(24*4, 0.5), randn(4, 0.05), 24, 4),
	}
}

func equivImage(seed uint64, n int) []float64 {
	r := mathx.NewRNG(seed)
	img := make([]float64, n)
	for i := range img {
		img[i] = r.Float64()
	}
	return img
}

// TestFastPathMatchesReference is the tentpole safety net: for every
// input-hidden hybrid on every conv geometry, the optimized path (scatter
// tables, base-major conv storage, fused bias, one storage-order fire
// sweep on the active kernel tier, CHW emission) and the reference path
// (StepSlow: per-event div/mod, CHW storage, z-buffer, separate sweeps)
// must emit bit-identical spike trains at every layer of every step, the
// same per-step predictions, and the same spike counts.
//
// Which body of the per-step scatter kernel (kernels.ConvScatterEvents64)
// each conv runs on the avx2 tier: equivGeom's OutC 4 the packed counted
// loop, c3/… the generic Go loop (every tier), c8s2/… the unrolled OutC 8
// body over ragged stride-2 tap lists, c16/… the unrolled OutC 16 body;
// on avx512 the OutC 8 and 16 bodies are its own and OutC 4 falls back to
// avx2's. The hidden dense layers run the same kernel at their widths:
// 12 (avx2's counted loop on both packed tiers: not a multiple of 8), 10
// (generic everywhere), 8 (the unrolled body) and 24 (the counted loop
// of both). serve.TestOutcomesMatchParentGolden's OutC 3/4/8/16 nets
// drive the conv bodies against the pre-ladder engine's outcomes. lenet/…
// is the served model's shape: a dense-mode gather first, then a
// base-major scatter whose events are reordered into channel runs.
func TestFastPathMatchesReference(t *testing.T) {
	geomNet := func(g ConvGeom, denseOut int) equivBuilder {
		return func(t *testing.T, input, hidden coding.Config, seed uint64) *Network {
			return buildEquivNetworkGeom(t, g, denseOut, input, hidden, seed)
		}
	}
	testFastPathMatchesReference(t, geomNet(equivGeom, equivDense)) // subtests named by hybrid alone
	for _, eg := range moreEquivGeoms {
		t.Run(eg.name, func(t *testing.T) { testFastPathMatchesReference(t, geomNet(eg.geom, eg.dense)) })
	}
	t.Run("lenet", func(t *testing.T) { testFastPathMatchesReference(t, buildLeNetEquiv) })
}

// equivBuilder builds one seeded equivalence network under a hybrid.
type equivBuilder func(t *testing.T, input, hidden coding.Config, seed uint64) *Network

func testFastPathMatchesReference(t *testing.T, build equivBuilder) {
	inputs := []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS}
	leaky := func(s coding.Scheme) coding.Config {
		cfg := coding.DefaultConfig(s)
		cfg.Leak = 0.05
		return cfg
	}
	hiddens := []struct {
		name string
		cfg  coding.Config
	}{
		{"rate", coding.DefaultConfig(coding.Rate)},
		{"phase", coding.DefaultConfig(coding.Phase)},
		{"burst", coding.DefaultConfig(coding.Burst)},
		{"ttfs", coding.DefaultConfig(coding.TTFS)},
		// Leaky-IF variants drive the general (non-specialized) fire
		// loop, pinning its bias-then-leak ordering to the reference.
		{"rate-leaky", leaky(coding.Rate)},
		{"burst-leaky", leaky(coding.Burst)},
	}
	const steps = 24
	for _, in := range inputs {
		for hi, hid := range hiddens {
			name := in.String() + "-" + hid.name
			t.Run(name, func(t *testing.T) {
				inCfg, hidCfg := coding.DefaultConfig(in), hid.cfg
				fast := build(t, inCfg, hidCfg, 0xABC0+uint64(in)*16+uint64(hi))
				ref, err := fast.Clone()
				if err != nil {
					t.Fatalf("clone: %v", err)
				}
				ref.Ref = true

				// Capture each layer's events per step on both networks.
				nL := len(fast.Layers)
				fastEv := make([][]coding.Event, nL+1)
				refEv := make([][]coding.Event, nL+1)
				record := func(sink [][]coding.Event, li int) Probe {
					return func(_ int, events []coding.Event) {
						sink[li+1] = append(sink[li+1][:0], events...)
					}
				}
				for li := -1; li < nL; li++ {
					fast.AttachProbe(li, record(fastEv, li))
					ref.AttachProbe(li, record(refEv, li))
				}

				// Two presentations back to back, to also prove Reset (and
				// the max-pool spike stamps) carry no state across images.
				for img := 0; img < 2; img++ {
					image := equivImage(0x515EED+uint64(img), fast.Encoder.Size())
					fast.Reset(image)
					ref.Reset(image)
					for s := 0; s < steps; s++ {
						stF := fast.Step(s)
						stR := ref.Step(s)
						if stF != stR {
							t.Fatalf("img %d step %d: stats diverge: fast %+v ref %+v", img, s, stF, stR)
						}
						for li := 0; li <= nL; li++ {
							a, b := fastEv[li], refEv[li]
							if len(a) != len(b) {
								t.Fatalf("img %d step %d layer %d: %d vs %d events", img, s, li-1, len(a), len(b))
							}
							for k := range a {
								if a[k] != b[k] {
									t.Fatalf("img %d step %d layer %d event %d: fast %+v ref %+v",
										img, s, li-1, k, a[k], b[k])
								}
							}
						}
						for o, p := range fast.Output.Potentials() {
							if diff := math.Abs(p - ref.Output.Potentials()[o]); diff > 1e-9 {
								t.Fatalf("img %d step %d: readout %d diverges by %v", img, s, o, diff)
							}
						}
					}
				}
			})
		}
	}
}

// TestRunMatchesReferenceRun pins the aggregate Result (per-step argmax
// trajectory and spike totals) of both paths on a full Run.
func TestRunMatchesReferenceRun(t *testing.T) {
	fast := buildEquivNetwork(t, coding.DefaultConfig(coding.Phase), coding.DefaultConfig(coding.Burst), 99)
	ref, err := fast.Clone()
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	ref.Ref = true
	image := equivImage(31337, fast.Encoder.Size())
	a := fast.Run(image, 32)
	b := ref.Run(image, 32)
	if a.InputSpikes != b.InputSpikes || a.HiddenSpikes != b.HiddenSpikes {
		t.Fatalf("spike counts diverge: fast %d/%d ref %d/%d",
			a.InputSpikes, a.HiddenSpikes, b.InputSpikes, b.HiddenSpikes)
	}
	for s := range a.PredictedAt {
		if a.PredictedAt[s] != b.PredictedAt[s] {
			t.Fatalf("step %d: prediction %d vs %d", s, a.PredictedAt[s], b.PredictedAt[s])
		}
	}
}

// naiveConvTaps recomputes one input pixel's scatter destinations with
// the reference stride/pad arithmetic (the pre-table hot-path code).
func naiveConvTaps(g ConvGeom, index int) []convTap {
	outH, outW := g.OutH(), g.OutW()
	ic := index / (g.InH * g.InW)
	rem := index % (g.InH * g.InW)
	iy, ix := rem/g.InW, rem%g.InW
	var taps []convTap
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
			taps = append(taps, convTap{
				WOff: int32(((ic*g.K+kh)*g.K + kw) * g.OutC),
				Base: int32(oy*outW + ox),
			})
		}
	}
	return taps
}

// TestConvScatterTableFuzz fuzzes ConvGeom and checks the precomputed
// scatter table against (a) the naive per-event arithmetic and (b) the
// dense tensor.Conv2D output when every input spikes exactly once with
// its pixel value as payload.
func TestConvScatterTableFuzz(t *testing.T) {
	r := mathx.NewRNG(0xC0FFEE)
	trials := 0
	for trials < 60 {
		g := ConvGeom{
			InC:    1 + r.Intn(3),
			InH:    3 + r.Intn(8),
			InW:    3 + r.Intn(8),
			OutC:   1 + r.Intn(4),
			K:      1 + r.Intn(4),
			Stride: 1 + r.Intn(3),
			Pad:    r.Intn(3),
		}
		if g.InH+2*g.Pad < g.K || g.InW+2*g.Pad < g.K {
			continue
		}
		trials++
		nIn := g.InC * g.InH * g.InW
		w := make([]float64, g.OutC*g.InC*g.K*g.K)
		for i := range w {
			w[i] = r.Norm(0, 1)
		}
		bias := make([]float64, g.OutC)
		l := NewSpikingConv(w, bias, g, coding.Config{Scheme: coding.Rate, VTh: 1e18})

		// (a) table vs naive arithmetic, every input pixel.
		for idx := 0; idx < nIn; idx++ {
			want := naiveConvTaps(g, idx)
			got := l.taps[l.tapStart[idx]:l.tapStart[idx+1]]
			if len(got) != len(want) {
				t.Fatalf("geom %+v input %d: %d taps, want %d", g, idx, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("geom %+v input %d tap %d: got %+v want %+v", g, idx, k, got[k], want[k])
				}
			}
		}

		// (b) all inputs spike once → membranes equal the dense convolution.
		img := make([]float64, nIn)
		events := make([]coding.Event, nIn)
		for i := range img {
			img[i] = r.Float64()
			events[i] = coding.Event{Index: i, Payload: img[i]}
		}
		l.Step(0, 0, events)
		in := tensor.New(g.InC, g.InH, g.InW)
		copy(in.Data, img)
		wT := tensor.New(g.OutC, g.InC*g.K*g.K)
		copy(wT.Data, w)
		dense := tensor.Conv2D(in, wT, nil, tensor.ConvSpec{
			InC: g.InC, InH: g.InH, InW: g.InW, OutC: g.OutC,
			KH: g.K, KW: g.K, Stride: g.Stride, Pad: g.Pad,
		})
		for i, want := range dense.Data {
			if math.Abs(l.Potential(i)-want) > 1e-9 {
				t.Fatalf("geom %+v neuron %d: scatter %v, dense %v", g, i, l.Potential(i), want)
			}
		}
	}
}

// TestSpikingMaxPoolTieForwardsSpikingWinner is the regression test for
// the tie-break bug: a spiking input whose cumulative payload ties a
// silent lower-indexed input must still be forwarded (previously the
// window went silent for the step).
func TestSpikingMaxPoolTieForwardsSpikingWinner(t *testing.T) {
	for _, path := range []struct {
		name string
		step func(l *SpikingMaxPool, t int, in []coding.Event) []coding.Event
	}{
		{"fast", func(l *SpikingMaxPool, tt int, in []coding.Event) []coding.Event { return l.Step(tt, 0, in) }},
		{"ref", func(l *SpikingMaxPool, tt int, in []coding.Event) []coding.Event { return l.StepSlow(tt, 0, in) }},
	} {
		t.Run(path.name, func(t *testing.T) {
			l := NewSpikingMaxPool(1, 2, 2, 2)
			// Step 0: input 0 spikes (cum 1) and passes the gate.
			out := path.step(l, 0, []coding.Event{{Index: 0, Payload: 1}})
			if len(out) != 1 || out[0].Index != 0 || out[0].Payload != 1 {
				t.Fatalf("step 0 output %+v", out)
			}
			// Step 1: input 3 spikes to cum 1, tying silent input 0. The
			// spiking winner must be forwarded, not muted by the tie.
			out = path.step(l, 1, []coding.Event{{Index: 3, Payload: 1}})
			if len(out) != 1 || out[0].Index != 0 || out[0].Payload != 1 {
				t.Fatalf("tie with silent max muted the spiking input: %+v", out)
			}
			// Two spiking inputs tied at the max forward exactly one event
			// (deterministically the lowest-indexed of the two).
			l2 := NewSpikingMaxPool(1, 2, 2, 2)
			out = path.step(l2, 0, []coding.Event{
				{Index: 1, Payload: 0.5}, {Index: 2, Payload: 0.5},
			})
			if len(out) != 1 || out[0].Index != 0 || out[0].Payload != 0.5 {
				t.Fatalf("spiking tie must forward exactly the lowest spiking winner, got %+v", out)
			}
			// A trailing input still never passes while it is below the max.
			out = path.step(l2, 1, []coding.Event{
				{Index: 1, Payload: 1}, {Index: 2, Payload: 0.1},
			})
			if len(out) != 1 || out[0].Payload != 1 {
				t.Fatalf("trailing input must stay gated: %+v", out)
			}
		})
	}
}

// TestMaxPoolFastMatchesSlowFuzz cross-checks the precomputed window
// tables against the arithmetic reference on random event streams.
func TestMaxPoolFastMatchesSlowFuzz(t *testing.T) {
	r := mathx.NewRNG(0xBEEF)
	fast := NewSpikingMaxPool(2, 4, 4, 2)
	slow := NewSpikingMaxPool(2, 4, 4, 2)
	n := 2 * 4 * 4
	for step := 0; step < 200; step++ {
		var in []coding.Event
		for i := 0; i < n; i++ {
			if r.Bernoulli(0.3) {
				// Coarse payloads make cumulative ties common.
				in = append(in, coding.Event{Index: i, Payload: float64(1+r.Intn(3)) * 0.25})
			}
		}
		a := append([]coding.Event(nil), fast.Step(step, 0, in)...)
		b := slow.StepSlow(step, 0, in)
		if len(a) != len(b) {
			t.Fatalf("step %d: %d vs %d events", step, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("step %d event %d: fast %+v slow %+v", step, k, a[k], b[k])
			}
		}
		if step%37 == 0 {
			fast.Reset()
			slow.Reset()
		}
	}
}
