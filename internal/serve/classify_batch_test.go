package serve

import (
	"context"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
)

// The two suites below keep the names of the float32 lockstep engine's
// serving suites and pin the same contracts on what ClassifyBatch runs
// now: a pool replica's simulator (Replica.Batch), one image after
// another. Both contracts are now exact — Margin included.

// hybridNet is allocNet with the hidden coding parameterized, so the
// batch suites can sweep the full 24-hybrid equivalence corpus.
func hybridNet(t testing.TB, input, hidden coding.Config, seed uint64) *snn.Network {
	t.Helper()
	r := mathx.NewRNG(seed)
	randn := func(n int, std float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm(0, std)
		}
		return v
	}
	g := snn.ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 1, Pad: 1}
	enc, err := coding.NewInputEncoder(input, g.InC*g.InH*g.InW, seed)
	if err != nil {
		t.Fatalf("encoder: %v", err)
	}
	denseIn := g.OutC * g.OutH() / 4 * g.OutW() / 4
	return &snn.Network{
		Encoder: enc,
		Layers: []snn.Layer{
			snn.NewSpikingConv(randn(g.OutC*g.InC*g.K*g.K, 0.35), randn(g.OutC, 0.05), g, hidden),
			snn.NewSpikingMaxPool(g.OutC, g.OutH(), g.OutW(), 2),
			snn.NewSpikingAvgPool(g.OutC, g.OutH()/2, g.OutW()/2, 2, hidden),
			snn.NewSpikingDense(randn(denseIn*12, 0.4), randn(12, 0.05), denseIn, 12, hidden),
		},
		Output: snn.NewOutputLayer(randn(12*4, 0.5), randn(4, 0.05), 12, 4),
	}
}

// replicaBatch returns the simulator a fresh one-replica pool over net
// hands out for a b-image batch.
func replicaBatch(t *testing.T, net *snn.Network, b int) *snn.Network {
	t.Helper()
	pool, err := NewPool(net, 1)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	rep, err := pool.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Put(rep) })
	bn, err := rep.Batch(b, true)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	return bn
}

// TestClassifyBatch32EarlyExitEquivalence: across the full equivalence
// corpus (24 hybrids × B ∈ {1, 3, 8}), ClassifyBatch on a replica's
// simulator returns, image by image, exactly the Outcome Classify gives
// on an independent clone — prediction, steps, early-exit flag, spike
// counts and margin bits — and reports the slowest image's step count.
func TestClassifyBatch32EarlyExitEquivalence(t *testing.T) {
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
		{"rate-leaky", leaky(coding.Rate)},
		{"burst-leaky", leaky(coding.Burst)},
	}
	for _, B := range []int{1, 3, 8} {
		for _, in := range inputs {
			for hi, hid := range hiddens {
				name := in.String() + "-" + hid.name
				t.Run(name+"/B="+string(rune('0'+B)), func(t *testing.T) {
					net := hybridNet(t, coding.DefaultConfig(in), hid.cfg, 0xE32+uint64(in)*64+uint64(hi)*8)
					seq, err := net.Clone()
					if err != nil {
						t.Fatalf("clone: %v", err)
					}
					bn := replicaBatch(t, net, B)
					images := make([][]float64, B)
					policies := make([]ExitPolicy, B)
					for i := range images {
						images[i] = allocImage(uint64(0xE77+i), net.Encoder.Size())
						policies[i] = ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
					}
					if B == 8 {
						policies[1].StableWindow = 3
						policies[2] = ExitPolicy{MaxSteps: 24}
						policies[3].MinSteps = 16
					}
					outs, steps := ClassifyBatch(bn, images, policies)
					slowest := 0
					for i := range images {
						want := Classify(seq, images[i], policies[i])
						if outs[i] != want {
							t.Fatalf("image %d: batch %+v, sequential %+v", i, outs[i], want)
						}
						slowest = max(slowest, want.Steps)
					}
					if steps != slowest {
						t.Fatalf("batch reported %d steps, slowest image took %d", steps, slowest)
					}
				})
			}
		}
	}
}

// TestClassifyBatch32CrossTier: the whole early-exit engine behind
// ClassifyBatch — argmax polling, stability windows, margins — produces
// the same Outcomes, Margin bits included, and the same batch step count
// under every available kernel dispatch tier. Mixed per-image policies
// make the images stop at different steps.
func TestClassifyBatch32CrossTier(t *testing.T) {
	levels := kernels.Available()
	if len(levels) < 2 {
		t.Skipf("single-tier build (%v)", levels)
	}
	defer kernels.ForceLevel("")
	hybrids := []struct {
		in, hid coding.Scheme
	}{
		{coding.Phase, coding.Burst},
		{coding.Rate, coding.Rate},
		{coding.Real, coding.Phase},
		{coding.TTFS, coding.Burst},
	}
	const B = 8
	for _, h := range hybrids {
		t.Run(h.in.String()+"-"+h.hid.String(), func(t *testing.T) {
			net := hybridNet(t, coding.DefaultConfig(h.in), coding.DefaultConfig(h.hid), 0xC2055)
			images := make([][]float64, B)
			policies := make([]ExitPolicy, B)
			for i := range images {
				images[i] = allocImage(uint64(0xC77+i), net.Encoder.Size())
				policies[i] = ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
			}
			policies[1].StableWindow = 3
			policies[2] = ExitPolicy{MaxSteps: 24}
			policies[3].MinSteps = 16
			policies[4].Margin = 0.01
			var ref []Outcome
			var refSteps int
			for li, lv := range levels {
				if err := kernels.ForceLevel(lv); err != nil {
					t.Fatal(err)
				}
				outs, steps := ClassifyBatch(replicaBatch(t, net, B), images, policies)
				if li == 0 {
					ref, refSteps = outs, steps
					continue
				}
				if steps != refSteps {
					t.Fatalf("tier %s: batch steps %d, %s %d", lv, steps, levels[0], refSteps)
				}
				for i := range ref {
					if outs[i] != ref[i] {
						t.Fatalf("image %d: tier %s %+v, %s %+v", i, lv, outs[i], levels[0], ref[i])
					}
				}
			}
		})
	}
}
