package burstsnn_test

import (
	"math"
	"path/filepath"
	"testing"

	"burstsnn"
)

// TestPublicAPIEndToEnd exercises the full public surface the way the
// README quickstart does: generate data, train, convert, evaluate,
// analyze, and estimate energy.
func TestPublicAPIEndToEnd(t *testing.T) {
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 50, TestPerClass: 6, Noise: 0.04, Seed: 3,
	})
	net, err := burstsnn.BuildDNN(burstsnn.MLP(1, 28, 28, []int{48}, 10), burstsnn.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	stats := burstsnn.Train(net, set, burstsnn.NewAdam(0.01), burstsnn.TrainConfig{
		Epochs: 12, BatchSize: 32, Seed: 5,
	})
	if len(stats) != 12 {
		t.Fatalf("expected 12 epoch stats, got %d", len(stats))
	}
	dnnAcc := burstsnn.EvaluateDNN(net, set.Test)
	if dnnAcc < 0.85 {
		t.Fatalf("DNN too weak: %.3f", dnnAcc)
	}

	res, err := burstsnn.Evaluate(net, set, burstsnn.EvalConfig{
		Hybrid: burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst),
		Steps:  64, MaxImages: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, at := res.BestAccuracy()
	if best < dnnAcc-0.15 {
		t.Fatalf("SNN best %.3f at %d vs DNN %.3f", best, at, dnnAcc)
	}
	if res.SpikesPerImage <= 0 {
		t.Fatal("no spikes measured")
	}

	// Pattern analysis on the same model.
	pat, err := burstsnn.CollectPatterns(net, set, burstsnn.PatternConfig{
		Hybrid: burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst),
		Steps:  48, Images: 2, SampleFrac: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pat.Bursts.TotalSpikes == 0 {
		t.Fatal("pattern collection recorded nothing")
	}

	// Energy model.
	w := burstsnn.Workload{
		Spikes:  res.SpikesPerImage,
		Density: res.Density(),
		Latency: float64(res.Steps),
	}
	e := burstsnn.EstimateEnergy(burstsnn.TrueNorth(), w)
	if e <= 0 || math.IsNaN(e) {
		t.Fatalf("energy estimate %v", e)
	}
}

func TestPublicAPIModelIO(t *testing.T) {
	spec := burstsnn.LeNetMini(1, 28, 28, 10)
	net, err := burstsnn.BuildDNN(spec, burstsnn.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := burstsnn.SaveModelFile(path, spec, net); err != nil {
		t.Fatal(err)
	}
	spec2, net2, err := burstsnn.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Name != spec.Name || net2.NumParams() != net.NumParams() {
		t.Fatal("round trip mismatch")
	}
}

func TestPublicAPISchemes(t *testing.T) {
	s, err := burstsnn.ParseScheme("burst")
	if err != nil || s != burstsnn.Burst {
		t.Fatal("ParseScheme failed")
	}
	cfg := burstsnn.DefaultCodingConfig(burstsnn.Burst)
	if cfg.VTh != 0.125 || cfg.Beta != 2 {
		t.Fatalf("burst defaults %+v", cfg)
	}
	h := burstsnn.NewHybrid(burstsnn.Real, burstsnn.Burst).WithVTh(0.0625)
	if h.Notation() != "real-burst" || h.Hidden.VTh != 0.0625 {
		t.Fatal("hybrid construction failed")
	}
}

func TestPublicAPISingleNeuronAndAnalysis(t *testing.T) {
	n := burstsnn.NewSingleNeuron(burstsnn.DefaultCodingConfig(burstsnn.Burst))
	var train burstsnn.SpikeTrain
	for t0 := 0; t0 < 40; t0++ {
		if fired, _ := n.Step(0.4); fired {
			train = append(train, t0)
		}
	}
	if len(train) == 0 {
		t.Fatal("neuron silent")
	}
	st := burstsnn.Bursts([]burstsnn.SpikeTrain{train})
	if st.TotalSpikes != len(train) {
		t.Fatal("burst stats wrong")
	}
	h := burstsnn.ISIH([]burstsnn.SpikeTrain{train}, 10)
	if len(h) != 10 {
		t.Fatal("ISIH length")
	}
	if d := burstsnn.SpikingDensity(10, 5, 2); d != 1 {
		t.Fatalf("density %v", d)
	}
}
