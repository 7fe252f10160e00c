package snn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

// drive pushes a constant current into a 1-neuron population for T steps
// and returns the emitted events plus the residual membrane.
func drive(cfg coding.Config, current float64, T int) ([]coding.Event, float64) {
	pop := newPopulation(1, cfg)
	var events []coding.Event
	for t := 0; t < T; t++ {
		pop.vmem[0] += current
		for _, ev := range pop.fire(t, nil, 0) {
			events = append(events, coding.Event{Index: ev.Index, Payload: ev.Payload})
		}
	}
	return events, pop.vmem[0]
}

func payloadSum(events []coding.Event) float64 {
	s := 0.0
	for _, ev := range events {
		s += ev.Payload
	}
	return s
}

// Conservation: emitted payload + residual membrane == integrated input.
// This is the reset-by-subtraction invariant (Eq. 4/5) and must hold for
// every hidden-layer coding scheme.
func TestPayloadConservationProperty(t *testing.T) {
	schemes := []coding.Config{
		coding.DefaultConfig(coding.Rate),
		coding.DefaultConfig(coding.Phase),
		coding.DefaultConfig(coding.Burst),
		{Scheme: coding.Burst, VTh: 0.0625, Beta: 2, Period: 8},
		{Scheme: coding.Burst, VTh: 0.25, Beta: 4, Period: 8},
	}
	for _, cfg := range schemes {
		cfg := cfg
		f := func(seed uint64) bool {
			r := mathx.NewRNG(seed)
			current := r.Range(0, 1.2)
			T := 20 + r.Intn(100)
			events, residual := drive(cfg, current, T)
			total := payloadSum(events) + residual
			want := current * float64(T)
			return math.Abs(total-want) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("scheme %v: %v", cfg.Scheme, err)
		}
	}
}

// An IF neuron under rate coding approximates ReLU: firing-rate payload
// per step converges to the input current (clipped at v_th per step).
func TestRateNeuronApproximatesReLU(t *testing.T) {
	cfg := coding.DefaultConfig(coding.Rate)
	for _, current := range []float64{0.1, 0.33, 0.5, 0.9} {
		events, _ := drive(cfg, current, 500)
		rate := payloadSum(events) / 500
		if math.Abs(rate-current) > 0.01 {
			t.Fatalf("current %v: payload rate %v", current, rate)
		}
	}
	// Negative current must stay silent (the ReLU cut-off).
	events, _ := drive(cfg, -0.5, 200)
	if len(events) != 0 {
		t.Fatal("negative current must not fire")
	}
}

// A burst neuron facing a large membrane drains it in logarithmically
// many consecutive spikes with geometrically growing payloads.
func TestBurstDrainsLargeMembraneFast(t *testing.T) {
	cfg := coding.Config{Scheme: coding.Burst, VTh: 0.125, Beta: 2, Period: 8}
	pop := newPopulation(1, cfg)
	pop.vmem[0] = 10.0
	var payloads []float64
	firstBurst := true
	var burst []float64
	for t0 := 0; t0 < 30; t0++ {
		evs := pop.fire(t0, nil, 0)
		if len(evs) == 0 {
			firstBurst = false
		} else if firstBurst {
			burst = append(burst, evs[0].Payload)
		}
		for _, ev := range evs {
			payloads = append(payloads, ev.Payload)
		}
	}
	// Rate coding at v_th=0.125 would need 80 unit steps; burst must be
	// far faster. V=10 with β=2 drains in a handful of geometric bursts.
	if len(payloads) == 0 || len(payloads) > 16 {
		t.Fatalf("expected burst to drain V=10 in few spikes, got %d", len(payloads))
	}
	// Within the first burst payloads must grow geometrically by β.
	if len(burst) < 4 {
		t.Fatalf("first burst too short: %v", burst)
	}
	for i := 1; i < len(burst); i++ {
		if math.Abs(burst[i]-2*burst[i-1]) > 1e-12 {
			t.Fatalf("burst payloads must double: %v", burst)
		}
	}
	if pop.vmem[0] >= 0.125 {
		t.Fatalf("membrane not drained below v_th: %v", pop.vmem[0])
	}
}

// After a silent step the burst state must reset, so the next spike again
// carries the base payload v_th.
func TestBurstStateResetsAfterSilence(t *testing.T) {
	cfg := coding.Config{Scheme: coding.Burst, VTh: 0.125, Beta: 2, Period: 8}
	pop := newPopulation(1, cfg)
	pop.vmem[0] = 1.0
	var first []float64
	for t0 := 0; t0 < 10; t0++ {
		for _, ev := range pop.fire(t0, nil, 0) {
			first = append(first, ev.Payload)
		}
	}
	// Now silent for a while, then a new charge.
	pop.vmem[0] = 1.0
	ev2 := pop.fire(50, nil, 0)
	if len(ev2) != 1 || ev2[0].Payload != 0.125 {
		t.Fatalf("after silence the first spike must carry v_th, got %+v", ev2)
	}
	_ = first
}

// Phase-coded neuron payloads must follow the oscillation Π(t)·v_th.
func TestPhaseNeuronPayloadFollowsOscillation(t *testing.T) {
	cfg := coding.DefaultConfig(coding.Phase)
	events, _ := drive(cfg, 0.9, 16)
	if len(events) == 0 {
		t.Fatal("phase neuron with strong input must fire")
	}
	for i, ev := range events {
		if ev.Payload > 0.5 || ev.Payload <= 0 {
			t.Fatalf("event %d payload %v outside phase envelope", i, ev.Payload)
		}
	}
}

func TestSpikingDenseScatter(t *testing.T) {
	// 2 inputs, 3 outputs; W row-major Out×In.
	w := []float64{
		1, 2,
		3, 4,
		5, 6,
	}
	bias := []float64{0.1, 0.2, 0.3}
	l := NewSpikingDense(w, bias, 2, 3, coding.DefaultConfig(coding.Rate))
	// Send one event on input 1, payload 0.5 => z = w[:,1]*0.5 + bias.
	l.Step(0, 1, []coding.Event{{Index: 1, Payload: 0.5}})
	want := []float64{1*0.1 + 2*0.5 - 0, 0.2 + 4*0.5, 0.3 + 6*0.5}
	want[0] = 0.1 + 2*0.5
	for i, wv := range want {
		got := l.Potential(i)
		// Neuron 1 (z=2.2) and 2 (z=3.3) crossed v_th=1 and were reset.
		if wv >= 1 {
			wv -= 1
		}
		if math.Abs(got-wv) > 1e-12 {
			t.Fatalf("neuron %d potential %v, want %v", i, got, wv)
		}
	}
}

func TestSpikingDenseRejectsBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad dims did not panic")
		}
	}()
	NewSpikingDense([]float64{1, 2, 3}, []float64{0}, 2, 1, coding.DefaultConfig(coding.Rate))
}

// A single input event through SpikingConv must integrate exactly the
// same membrane pattern as the dense convolution of a one-hot input.
func TestSpikingConvMatchesDenseConv(t *testing.T) {
	r := mathx.NewRNG(42)
	geom := ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 3, K: 3, Stride: 1, Pad: 1}
	nW := geom.OutC * geom.InC * geom.K * geom.K
	w := make([]float64, nW)
	for i := range w {
		w[i] = r.Norm(0, 1)
	}
	bias := make([]float64, geom.OutC) // zero bias isolates the scatter

	// Rate config with a huge threshold so nothing fires and vmem holds
	// the raw integration.
	cfg := coding.Config{Scheme: coding.Rate, VTh: 1e18}
	l := NewSpikingConv(w, bias, geom, cfg)

	evIdx := (1*geom.InH+2)*geom.InW + 3 // channel 1, y=2, x=3
	payload := 0.7
	l.Step(0, 1, []coding.Event{{Index: evIdx, Payload: payload}})

	// Reference: dense conv of the one-hot image.
	outH, outW := geom.OutH(), geom.OutW()
	ref := make([]float64, geom.OutC*outH*outW)
	for oc := 0; oc < geom.OutC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := 0.0
				for ic := 0; ic < geom.InC; ic++ {
					for kh := 0; kh < geom.K; kh++ {
						iy := oy*geom.Stride + kh - geom.Pad
						if iy < 0 || iy >= geom.InH {
							continue
						}
						for kw := 0; kw < geom.K; kw++ {
							ix := ox*geom.Stride + kw - geom.Pad
							if ix < 0 || ix >= geom.InW {
								continue
							}
							inIdx := (ic*geom.InH+iy)*geom.InW + ix
							if inIdx != evIdx {
								continue
							}
							sum += w[((oc*geom.InC+ic)*geom.K+kh)*geom.K+kw] * payload
						}
					}
				}
				ref[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	for i, want := range ref {
		if math.Abs(l.Potential(i)-want) > 1e-9 {
			t.Fatalf("conv scatter diverges at %d: got %v want %v", i, l.Potential(i), want)
		}
	}
}

func TestSpikingConvStride2(t *testing.T) {
	geom := ConvGeom{InC: 1, InH: 4, InW: 4, OutC: 1, K: 3, Stride: 2, Pad: 1}
	if geom.OutH() != 2 || geom.OutW() != 2 {
		t.Fatalf("geometry %dx%d", geom.OutH(), geom.OutW())
	}
	w := make([]float64, 9)
	for i := range w {
		w[i] = 1
	}
	cfg := coding.Config{Scheme: coding.Rate, VTh: 1e18}
	l := NewSpikingConv(w, []float64{0}, geom, cfg)
	// Event at (0,0): contributes to outputs whose window covers (0,0).
	l.Step(0, 1, []coding.Event{{Index: 0, Payload: 1}})
	// Output (0,0) window covers input rows/cols -1..1 => includes (0,0);
	// output (0,1) covers cols 1..3 => excludes col 0. Same for rows.
	if l.pop.vmem[0] != 1 || l.pop.vmem[1] != 0 || l.pop.vmem[2] != 0 || l.pop.vmem[3] != 0 {
		t.Fatalf("stride-2 scatter wrong: %v", l.pop.vmem)
	}
}

func TestSpikingAvgPoolConservation(t *testing.T) {
	cfg := coding.Config{Scheme: coding.Rate, VTh: 1e18}
	l := NewSpikingAvgPool(1, 4, 4, 2, cfg)
	// Four events in the same window must integrate their mean.
	events := []coding.Event{
		{Index: 0, Payload: 1}, {Index: 1, Payload: 1},
		{Index: 4, Payload: 1}, {Index: 5, Payload: 1},
	}
	l.Step(0, 1, events)
	if math.Abs(l.pop.vmem[0]-1) > 1e-12 {
		t.Fatalf("pool neuron 0 = %v, want 1 (mean of window)", l.pop.vmem[0])
	}
	for i := 1; i < 4; i++ {
		if l.pop.vmem[i] != 0 {
			t.Fatalf("pool neuron %d leaked: %v", i, l.pop.vmem[i])
		}
	}
}

func TestSpikingMaxPoolGatesWinner(t *testing.T) {
	l := NewSpikingMaxPool(1, 2, 2, 2)
	// Input 0 fires twice, input 3 once: after the first step input 0 is
	// the cumulative max and passes; input 3's spike is suppressed while
	// it trails.
	out := l.Step(0, 1, []coding.Event{{Index: 0, Payload: 1}})
	if len(out) != 1 || out[0].Index != 0 {
		t.Fatalf("step 0 output %+v", out)
	}
	out = l.Step(1, 1, []coding.Event{{Index: 0, Payload: 1}, {Index: 3, Payload: 0.5}})
	if len(out) != 1 || out[0].Payload != 1 {
		t.Fatalf("step 1: only the cumulative winner must pass, got %+v", out)
	}
	if l.NumNeurons() != 0 {
		t.Fatal("max pool gate must report zero neurons")
	}
}

func TestOutputLayerAccumulates(t *testing.T) {
	w := []float64{1, 0, 0, 1} // identity 2x2
	l := NewOutputLayer(w, []float64{0.5, 0}, 2, 2)
	l.Step(0, 1, []coding.Event{{Index: 0, Payload: 2}})
	l.Step(1, 1, nil)
	pot := l.Potentials()
	if pot[0] != 2+0.5*2 || pot[1] != 0 {
		t.Fatalf("potentials %v", pot)
	}
	l.Reset()
	if l.Potentials()[0] != 0 {
		t.Fatal("Reset did not clear potentials")
	}
}

// End-to-end: a hand-built real→rate SNN must converge to the underlying
// analog network's decision. Analog net: y = W2·ReLU(W1·x), picks class
// by argmax.
func TestNetworkConvergesToAnalogDecision(t *testing.T) {
	w1 := []float64{
		0.8, 0.1,
		0.1, 0.7,
	}
	b1 := []float64{0, 0}
	w2 := []float64{
		0.9, 0.1,
		0.1, 0.9,
	}
	b2 := []float64{0, 0}
	enc, err := coding.NewInputEncoder(coding.DefaultConfig(coding.Real), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := &Network{
		Encoder: enc,
		Layers: []Layer{
			NewSpikingDense(w1, b1, 2, 2, coding.DefaultConfig(coding.Rate)),
		},
		Output: NewOutputLayer(w2, b2, 2, 2),
	}
	// Input favouring class 0.
	res := net.Run([]float64{0.9, 0.2}, 100)
	if res.FinalPrediction() != 0 {
		t.Fatalf("predicted %d, want 0", res.FinalPrediction())
	}
	// And the mirrored input favours class 1.
	res = net.Run([]float64{0.2, 0.9}, 100)
	if res.FinalPrediction() != 1 {
		t.Fatalf("predicted %d, want 1", res.FinalPrediction())
	}
	if res.HiddenSpikes == 0 {
		t.Fatal("no hidden spikes recorded")
	}
	if res.InputSpikes != 0 {
		t.Fatal("real encoder events must not count as spikes")
	}
}

func TestNetworkProbeSeesSpikes(t *testing.T) {
	enc, _ := coding.NewInputEncoder(coding.DefaultConfig(coding.Rate), 1, 0)
	net := &Network{
		Encoder: enc,
		Layers: []Layer{
			NewSpikingDense([]float64{1}, []float64{0}, 1, 1, coding.DefaultConfig(coding.Rate)),
		},
		Output: NewOutputLayer([]float64{1}, []float64{0}, 1, 1),
	}
	var layerSpikes, inputSpikes int
	net.AttachProbe(0, func(_ int, evs []coding.Event) { layerSpikes += len(evs) })
	net.AttachProbe(-1, func(_ int, evs []coding.Event) { inputSpikes += len(evs) })
	res := net.Run([]float64{1}, 50)
	if layerSpikes == 0 || inputSpikes == 0 {
		t.Fatalf("probes saw %d/%d events", inputSpikes, layerSpikes)
	}
	if res.HiddenSpikes != layerSpikes {
		t.Fatalf("probe count %d != result count %d", layerSpikes, res.HiddenSpikes)
	}
}

func TestNetworkNumNeurons(t *testing.T) {
	enc, _ := coding.NewInputEncoder(coding.DefaultConfig(coding.Rate), 4, 0)
	net := &Network{
		Encoder: enc,
		Layers: []Layer{
			NewSpikingDense(make([]float64, 4*3), make([]float64, 3), 4, 3, coding.DefaultConfig(coding.Rate)),
		},
		Output: NewOutputLayer(make([]float64, 3*2), make([]float64, 2), 3, 2),
	}
	if got := net.NumNeurons(); got != 4+3+2 {
		t.Fatalf("NumNeurons = %d, want 9", got)
	}
}

func TestNetworkResetClearsState(t *testing.T) {
	enc, _ := coding.NewInputEncoder(coding.DefaultConfig(coding.Real), 1, 0)
	net := &Network{
		Encoder: enc,
		Layers: []Layer{
			NewSpikingDense([]float64{1}, []float64{0}, 1, 1, coding.DefaultConfig(coding.Rate)),
		},
		Output: NewOutputLayer([]float64{1}, []float64{0}, 1, 1),
	}
	r1 := net.Run([]float64{0.7}, 40)
	r2 := net.Run([]float64{0.7}, 40)
	if r1.HiddenSpikes != r2.HiddenSpikes {
		t.Fatalf("identical runs diverged: %d vs %d spikes", r1.HiddenSpikes, r2.HiddenSpikes)
	}
	if math.Abs(float64(r1.TotalSpikes()-r2.TotalSpikes())) > 0 {
		t.Fatal("TotalSpikes mismatch across identical runs")
	}
}

func TestAttachProbeOutOfRangePanics(t *testing.T) {
	enc, _ := coding.NewInputEncoder(coding.DefaultConfig(coding.Real), 1, 0)
	net := &Network{Encoder: enc, Output: NewOutputLayer([]float64{1}, []float64{0}, 1, 1)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.AttachProbe(3, func(int, []coding.Event) {})
}

// Leak = 0 must reproduce pure IF behaviour exactly.
func TestLeakZeroMatchesIF(t *testing.T) {
	base := coding.DefaultConfig(coding.Rate)
	leaky := base
	leaky.Leak = 0
	e1, r1 := drive(base, 0.4, 100)
	e2, r2 := drive(leaky, 0.4, 100)
	if len(e1) != len(e2) || r1 != r2 {
		t.Fatal("Leak=0 diverges from IF")
	}
}

// A leaky neuron under weak drive loses charge: it fires strictly less
// than the IF neuron and conservation no longer holds.
func TestLeakReducesOutput(t *testing.T) {
	base := coding.DefaultConfig(coding.Rate)
	leaky := base
	leaky.Leak = 0.05
	eIF, _ := drive(base, 0.3, 300)
	eLK, _ := drive(leaky, 0.3, 300)
	if payloadSum(eLK) >= payloadSum(eIF) {
		t.Fatalf("leaky output %v must be below IF output %v",
			payloadSum(eLK), payloadSum(eIF))
	}
}

// Strong leak silences sub-threshold drive entirely: the membrane
// equilibrium (1-ℓ)·z/ℓ stays below threshold.
func TestLeakSilencesWeakDrive(t *testing.T) {
	cfg := coding.DefaultConfig(coding.Rate) // v_th = 1
	cfg.Leak = 0.5                           // equilibrium = z
	events, _ := drive(cfg, 0.3, 200)
	if len(events) != 0 {
		t.Fatalf("weak drive fired %d spikes under strong leak", len(events))
	}
}

// TestMembraneNeverNegativeZero pins the invariant dense mode rests on:
// no membrane cell is ever −0, so a silent input's w·0 = ±0 cannot change
// one, nor can skipping it. It drives a conv in both layouts, an avg-pool
// and a dense layer through scatter, gather and fire under burst, phase
// and rate coding, with and without leak, with exact-zero weights,
// biases and payloads of both signs and a zero bias scale every third
// step, at every kernel tier — every other conv step with one payload
// for all its events, which the dense layout runs on the masked gather
// where the tier packs it — and checks on the way that the two conv
// layouts agree bit for bit.
func TestMembraneNeverNegativeZero(t *testing.T) {
	defer kernels.ForceLevel("")
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			t.Fatal(err)
		}
		for si, scheme := range []coding.Scheme{coding.Burst, coding.Phase, coding.Rate} {
			for _, leak := range []float64{0, 0.05, 0.4} {
				t.Run(fmt.Sprintf("level=%s/%s/leak=%v", lv, scheme, leak), func(t *testing.T) {
					cfg := coding.DefaultConfig(scheme)
					cfg.Leak = leak
					r := mathx.NewRNG(0x2E50 + uint64(si))
					// A quarter of the values exactly +0, a quarter −0.
					signed := func(n int, std float64) []float64 {
						v := make([]float64, n)
						for i := range v {
							switch r.Intn(4) {
							case 0:
							case 1:
								v[i] = math.Copysign(0, -1)
							default:
								v[i] = r.Norm(0, std)
							}
						}
						return v
					}
					events := func(n int) []coding.Event {
						var ev []coding.Event
						for i, p := range signed(n, 0.6) {
							if r.Bernoulli(0.5) {
								ev = append(ev, coding.Event{Index: i, Payload: p})
							}
						}
						return ev
					}
					g := ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 8, K: 3, Stride: 1, Pad: 1}
					scatter := NewSpikingConv(signed(8*2*9, 0.4), signed(8, 0.1), g, cfg)
					gather := scatter.CloneLayer().(*SpikingConv)
					if !gather.UseDenseMode() {
						t.Fatal("dense mode refused")
					}
					pool := NewSpikingAvgPool(8, 8, 8, 2, cfg)
					dense := NewSpikingDense(signed(128*16, 0.4), signed(16, 0.1), 128, 16, cfg)
					pops := map[string]*population{"conv": scatter.pop, "conv/dense": gather.pop, "avgpool": pool.pop, "dense": dense.pop}
					for step := 0; step < 64; step++ {
						bsc := [3]float64{0, 1, r.Float64()}[step%3]
						in := events(128)
						if step%2 == 1 {
							p := signed(1, 0.6)[0]
							for i := range in {
								in[i].Payload = p
							}
						}
						a := append([]coding.Event(nil), scatter.Step(step, bsc, in)...)
						b := gather.Step(step, bsc, in)
						if len(a) != len(b) {
							t.Fatalf("step %d: scatter emitted %d events, gather %d", step, len(a), len(b))
						}
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("step %d event %d: scatter %+v, gather %+v", step, i, a[i], b[i])
							}
						}
						for i := 0; i < scatter.NumNeurons(); i++ {
							if x, y := scatter.Potential(i), gather.Potential(i); math.Float64bits(x) != math.Float64bits(y) {
								t.Fatalf("step %d neuron %d: scatter %v, gather %v", step, i, x, y)
							}
						}
						pool.Step(step, bsc, events(512))
						dense.Step(step, bsc, events(128))
						for name, p := range pops {
							for c, x := range p.vmem {
								if x == 0 && math.Signbit(x) {
									t.Fatalf("step %d: %s cell %d holds −0", step, name, c)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestDenseModeMaskFallback: a dense-mode conv runs the masked gather
// only on a step whose events all carry one payload; one odd payload
// sends the step to the plane gather. Both give the base-major scatter's
// bits, at every tier, on fresh events every step and on a stream that
// repeats with an input period (its planes kept per slot, the odd slot
// falling back on every visit).
func TestDenseModeMaskFallback(t *testing.T) {
	defer kernels.ForceLevel("")
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			t.Fatal(err)
		}
		for _, period := range []int{0, 3} {
			t.Run(fmt.Sprintf("level=%s/period=%d", lv, period), func(t *testing.T) {
				g := ConvGeom{InC: 2, InH: 8, InW: 12, OutC: 8, K: 3, Stride: 1, Pad: 1}
				r := mathx.NewRNG(0xFA11 + uint64(period))
				randn := gaussians(r)
				scatter := NewSpikingConv(randn(8*2*9, 0.4), randn(8, 0.1), g, coding.DefaultConfig(coding.Burst))
				gather := scatter.CloneLayer().(*SpikingConv)
				if !gather.UseDenseMode() {
					t.Fatal("dense mode refused")
				}
				gather.setInputPeriod(period)
				// Step t's events, phase-coded; every third step has one odd
				// payload. With a period, step t replays step t mod period.
				draw := func(t int) []coding.Event {
					p := coding.Pi(t, 8)
					var in []coding.Event
					for i := 0; i < 2*8*12; i++ {
						if r.Bernoulli(0.5) {
							in = append(in, coding.Event{Index: i, Payload: p})
						}
					}
					if t%3 == 2 {
						in[r.Intn(len(in))].Payload = 3 * p
					}
					return in
				}
				var replay [][]coding.Event
				for step := 0; step < 24; step++ {
					in := draw(step)
					if period > 0 {
						if step < period {
							replay = append(replay, in)
						}
						in = replay[step%period]
					}
					a := append([]coding.Event(nil), scatter.Step(step, 0.5, in)...)
					b := gather.Step(step, 0.5, in)
					if len(a) != len(b) {
						t.Fatalf("step %d: scatter emitted %d events, dense mode %d", step, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("step %d event %d: scatter %+v, dense mode %+v", step, i, a[i], b[i])
						}
					}
					for i := 0; i < scatter.NumNeurons(); i++ {
						if x, y := scatter.Potential(i), gather.Potential(i); math.Float64bits(x) != math.Float64bits(y) {
							t.Fatalf("step %d neuron %d: scatter %v, dense mode %v", step, i, x, y)
						}
					}
					if !kernels.ConvMaskGatherPacked(g.OutC) {
						continue
					}
					slot := gather.slots[0]
					if period > 0 {
						slot = gather.slots[step%period]
					}
					want := uint8(slotMasked)
					if step%3 == 2 {
						want = slotMixed
					}
					if slot.state != want {
						t.Fatalf("step %d: bit plane state %d, want %d", step, slot.state, want)
					}
				}
			})
		}
	}
}

// TestDenseModeEligibility: dense mode takes only layers the gather is
// exact for — stride 1, finite weights, a leak below 1/2 — and the leak
// bound is real: a decay by 1/2 rounds the smallest negative membrane to
// −0.
func TestDenseModeEligibility(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, OutC: 2, K: 3, Stride: 1, Pad: 1}
	w := make([]float64, 2*9)
	cfg := coding.DefaultConfig(coding.Rate)
	if l := NewSpikingConv(w, []float64{0, 0}, g, cfg); !l.UseDenseMode() || !l.DenseMode() {
		t.Fatal("a stride-1 conv with finite weights refused dense mode")
	}
	s2 := g
	s2.Stride = 2
	if NewSpikingConv(w, []float64{0, 0}, s2, cfg).UseDenseMode() {
		t.Error("dense mode took a stride-2 conv")
	}
	inf := append([]float64(nil), w...)
	inf[4] = math.Inf(-1)
	if NewSpikingConv(inf, []float64{0, 0}, g, cfg).UseDenseMode() {
		t.Error("dense mode took an infinite weight")
	}
	half := cfg
	half.Leak = 0.5
	if NewSpikingConv(w, []float64{0, 0}, g, half).UseDenseMode() {
		t.Error("dense mode took a leak of 1/2")
	}
	p := newPopulation(1, half)
	p.vmem[0] = -math.SmallestNonzeroFloat64
	p.fire(0, nil, 0)
	if x := p.vmem[0]; x != 0 || !math.Signbit(x) {
		t.Errorf("leak 1/2 left %v; the bound it motivates assumes −0", x)
	}
}
