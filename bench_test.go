// Benchmarks that regenerate every table and figure of the paper (one
// Benchmark per exhibit) plus micro-benchmarks of the simulator hot paths
// and ablations of two design choices (burst constant β, normalization
// method).
//
// The macro benchmarks print their reproduced table/figure once (via
// b.Logf, visible with -v or on failure) and report the headline numbers
// as custom metrics. Trained baseline models are cached in the system
// temp directory, so the first run pays the training cost and later runs
// reuse it.
package burstsnn_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"burstsnn"
	"burstsnn/internal/benchkit"
	"burstsnn/internal/coding"
	"burstsnn/internal/dnn"
	"burstsnn/internal/experiments"
	"burstsnn/internal/kernels"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
	"burstsnn/internal/tensor"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared benchmark Lab. Workloads follow
// experiments.DefaultSettings (the paper's budgets scaled down for run
// time); raise them by editing Settings or via snnbench flags for a
// longer-running reproduction.
func lab() *experiments.Lab {
	benchLabOnce.Do(func() {
		s := experiments.DefaultSettings()
		s.Log = os.Stderr
		benchLab = experiments.NewLab(s)
	})
	return benchLab
}

// BenchmarkFig1ISIH regenerates Fig. 1: spike train, PSP staircase, and
// ISI histogram of one IF neuron under rate, phase, and burst coding.
func BenchmarkFig1ISIH(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res := experiments.Fig1(0.7, 256)
		out = res.Render()
		// Headline metric: spikes each coding needs for the same drive.
		for _, tr := range res.Traces {
			b.ReportMetric(float64(len(tr.Spikes)), tr.Scheme+"-spikes")
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkFig2BurstComposition regenerates Fig. 2: burst share and
// length composition across the v_th sweep.
func BenchmarkFig2BurstComposition(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(l)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(first.PercentBurst*100, "burst%@vth=0.5")
		b.ReportMetric(last.PercentBurst*100, "burst%@vth=0.03125")
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkTable1Grid regenerates Table 1: the 9-combination coding grid
// on the CIFAR-10 stand-in.
func BenchmarkTable1Grid(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(l)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Input == "phase" && row.Hidden == "burst" {
				b.ReportMetric(row.Accuracy*100, "phase-burst-acc%")
				b.ReportMetric(row.Spikes, "phase-burst-spikes")
			}
			if row.Input == "phase" && row.Hidden == "phase" {
				b.ReportMetric(row.Spikes, "phase-phase-spikes")
			}
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkFig3TargetLatency regenerates Fig. 3: latency and spikes to
// reach the three target accuracies.
func BenchmarkFig3TargetLatency(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(l)
		if err != nil {
			b.Fatal(err)
		}
		for _, cell := range res.Targets[0].Cells {
			if cell.Combo == "real-burst" && cell.Latency > 0 {
				b.ReportMetric(float64(cell.Latency), "real-burst-latency")
			}
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkFig4InferenceCurve regenerates Fig. 4: accuracy-vs-step curves
// for all nine coding combinations.
func BenchmarkFig4InferenceCurve(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(l)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Curves {
			if c.Combo == "phase-burst" {
				b.ReportMetric(c.AccuracyAt[len(c.AccuracyAt)-1]*100, "phase-burst-final%")
			}
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkTable2Comparison regenerates Table 2: the cross-method
// comparison on all three datasets with density and normalized energy.
func BenchmarkTable2Comparison(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(l)
		if err != nil {
			b.Fatal(err)
		}
		for _, sec := range res.Sections {
			for _, row := range sec.Rows {
				if row.Hidden == "burst" {
					b.ReportMetric(row.EnergyTN, sec.Dataset+"-burst-E(TN)")
				}
			}
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkFig5FiringPattern regenerates Fig. 5: the firing-rate /
// regularity scatter and the per-hidden-scheme flexibility spread.
func BenchmarkFig5FiringPattern(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(l)
		if err != nil {
			b.Fatal(err)
		}
		spread := res.HiddenSpread()
		b.ReportMetric(spread["burst"], "burst-rate-spread")
		b.ReportMetric(spread["phase"], "phase-rate-spread")
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
	}
}

// --- Micro-benchmarks of the simulator hot paths ---

// benchEvalModel builds a small trained model once for the micro-benches.
var (
	microOnce sync.Once
	microNet  *burstsnn.DNN
	microSet  *burstsnn.Set
)

func microModel(b *testing.B) (*burstsnn.DNN, *burstsnn.Set) {
	microOnce.Do(func() {
		cfg := burstsnn.DefaultTexturesConfig()
		cfg.TrainPerClass, cfg.TestPerClass = 40, 8
		microSet = burstsnn.SynthTextures(cfg)
		var err error
		microNet, err = burstsnn.BuildDNN(burstsnn.LeNetMini(3, 16, 16, 10), burstsnn.NewRNG(1))
		if err != nil {
			panic(err)
		}
		burstsnn.Train(microNet, microSet, burstsnn.NewAdam(0.005), burstsnn.TrainConfig{
			Epochs: 3, BatchSize: 32, Seed: 2,
		})
	})
	return microNet, microSet
}

// BenchmarkSNNStep measures event-driven simulation throughput per coding
// configuration (steps/op on one image), on both the optimized path and
// the retained reference path — the ratio is the hot-path speedup on the
// conv-bearing LeNetMini model.
func BenchmarkSNNStep(b *testing.B) {
	net, set := microModel(b)
	for _, hidden := range []burstsnn.Scheme{burstsnn.Rate, burstsnn.Phase, burstsnn.Burst} {
		for _, path := range []string{"fast", "ref"} {
			b.Run("phase-"+hidden.String()+"/"+path, func(b *testing.B) {
				conv, err := burstsnn.Convert(net, set.Train, burstsnn.DefaultConvertOptions(burstsnn.Phase, hidden))
				if err != nil {
					b.Fatal(err)
				}
				conv.Net.Ref = path == "ref"
				img := set.Test[0].Image
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Net.Run(img, 64)
				}
			})
		}
	}
}

// --- Hot-path per-layer micro-benchmarks (fast vs reference path) ---
//
// Workloads come from internal/benchkit so `go test -bench Hotpath` and
// the benchmark ladder's snn.*_step_ns rungs time the same layers.

// BenchmarkHotpathConvStep isolates SpikingConv.Step: table-driven
// scatter + fused bias/fire versus per-event div/mod arithmetic with a
// full-population bias sweep. The fast path runs once per available
// kernel dispatch tier (fast/purego, fast/avx2, fast/avx512 side by side);
// the reference path has no kernels and runs once.
func BenchmarkHotpathConvStep(b *testing.B) {
	layer, in := benchkit.HotpathConv()
	run := func(name string, step func(int, float64, []coding.Event) []coding.Event) {
		b.Run(name, func(b *testing.B) {
			layer.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i, 1, in)
			}
		})
	}
	defer kernels.ForceLevel("")
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			b.Fatal(err)
		}
		run("fast/"+lv, layer.Step)
	}
	run("ref", layer.StepSlow)
}

// BenchmarkHotpathEncoderConvStep times the conv an input encoder feeds,
// on the encoders' own event streams, in both layouts: base-major scatter
// and dense mode's CHW gather. It runs both served LeNetMini shapes — the
// benchmark's textures (3×16×16) and snnserve's digits (1×28×28, ink on a
// dark noisy background) — and reports each stream's input density
// (events per pixel per step), the quantity the converter's layout rule
// compares against convert.DenseInputDensity.
func BenchmarkHotpathEncoderConvStep(b *testing.B) {
	_, textures := microModel(b)
	digits := burstsnn.SynthDigits(burstsnn.DigitsConfig{TrainPerClass: 1, TestPerClass: 1, Noise: 0.04, Seed: 1009})
	for _, m := range []struct {
		name string
		g    snn.ConvGeom
		set  *burstsnn.Set
	}{
		{"textures", snn.ConvGeom{InC: 3, InH: 16, InW: 16, OutC: 8, K: 3, Stride: 1, Pad: 1}, textures},
		{"digits", snn.ConvGeom{InC: 1, InH: 28, InW: 28, OutC: 8, K: 3, Stride: 1, Pad: 1}, digits},
	} {
		g := m.g
		w := benchkit.Randn(g.OutC*g.InC*g.K*g.K, 0.3, 11)
		bias := benchkit.Randn(g.OutC, 0.05, 12)
		for _, input := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
			enc, err := coding.NewInputEncoder(coding.DefaultConfig(input), g.InC*g.InH*g.InW, 0)
			if err != nil {
				b.Fatal(err)
			}
			// 8 images × 24 steps of the encoder's events, copied out of
			// its reused buffer.
			var steps [][]coding.Event
			events := 0
			for _, s := range m.set.Test[:8] {
				enc.Reset(s.Image)
				for t := 0; t < 24; t++ {
					steps = append(steps, append([]coding.Event(nil), enc.Step(t)...))
					events += len(steps[len(steps)-1])
				}
			}
			density := float64(events) / float64(len(steps)*enc.Size())
			for _, dense := range []bool{false, true} {
				layer := snn.NewSpikingConv(w, bias, g, coding.DefaultConfig(coding.Burst))
				name := m.name + "/" + input.String() + "/scatter"
				if dense {
					layer.UseDenseMode()
					name = m.name + "/" + input.String() + "/gather"
				}
				b.Run(name, func(b *testing.B) {
					layer.Reset()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						layer.Step(i, 1, steps[i%len(steps)])
					}
					b.ReportMetric(density, "density")
				})
			}
		}
	}
}

// BenchmarkHotpathDenseStep isolates SpikingDense.Step: direct membrane
// accumulation with fused bias versus the three-pass z-buffer version.
func BenchmarkHotpathDenseStep(b *testing.B) {
	layer, evs := benchkit.HotpathDense()
	for _, path := range []string{"fast", "ref"} {
		b.Run(path, func(b *testing.B) {
			layer.Reset()
			step := layer.Step
			if path == "ref" {
				step = layer.StepSlow
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i, 1, evs)
			}
		})
	}
}

// BenchmarkHotpathPoolStep isolates the pooling stages (precomputed
// window tables versus per-event div/mod).
func BenchmarkHotpathPoolStep(b *testing.B) {
	avg, maxp, in := benchkit.HotpathPools()
	type stepFn func(t int, biasScale float64, in []coding.Event) []coding.Event
	cases := []struct {
		name string
		step stepFn
	}{
		{"avg/fast", avg.Step}, {"avg/ref", avg.StepSlow},
		{"max/fast", maxp.Step}, {"max/ref", maxp.StepSlow},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.step(i, 0, in)
			}
		})
	}
}

// BenchmarkHotpathClassify measures the early-exit engine directly on a
// pooled replica (no batching queue), asserting the zero-allocation
// steady state via allocs/op.
func BenchmarkHotpathClassify(b *testing.B) {
	net, set := microModel(b)
	conv, err := burstsnn.Convert(net, set.Train, burstsnn.DefaultConvertOptions(burstsnn.Phase, burstsnn.Burst))
	if err != nil {
		b.Fatal(err)
	}
	policy := serve.DefaultExitPolicy(96)
	img := set.Test[0].Image
	serve.Classify(conv.Net, img, policy) // reach buffer high-watermark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve.Classify(conv.Net, img, policy)
	}
}

// BenchmarkHotpathBatchStep steps B = 8 independent lanes of each
// canonical layer, one after another on the sequential simulator, each
// on its own benchkit stream: what the ladder's snn.*_batch8_step_ns
// rungs time, with lane-events per op reported so the per-spike cost is
// comparable with the single-lane Hotpath*Step benchmarks.
func BenchmarkHotpathBatchStep(b *testing.B) {
	const B = benchkit.HotpathBatchB
	conv, convIn := benchkit.HotpathConvBatch(B)
	dense, denseIn := benchkit.HotpathDenseBatch(B)
	cases := []struct {
		name  string
		lanes benchkit.Lanes
		in    [][]coding.Event
	}{
		{"conv", conv, convIn},
		{"dense", dense, denseIn},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			events := 0
			for i, layer := range c.lanes {
				layer.Reset()
				events += len(c.in[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.lanes.Step(i, 1, B, c.in)
			}
			b.ReportMetric(float64(events), "laneEvents/op")
		})
	}
}

// BenchmarkDNNForward measures the analog forward pass for comparison
// with the event-driven path.
func BenchmarkDNNForward(b *testing.B) {
	net, set := microModel(b)
	img := set.Test[0].Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burstsnn.EvaluateDNN(net, []burstsnn.Sample{{Image: img, Label: 0}})
	}
}

// BenchmarkDNNTrainSample measures the trainer's per-sample work on
// LeNetMini and one textures image: the forward pass with training
// behaviour on, the loss gradient and the backward pass (parameter
// gradients accumulate; the weights do not move). Beside
// BenchmarkDNNForward it shows what the backward pass costs.
func BenchmarkDNNTrainSample(b *testing.B) {
	net, set := microModel(b)
	s := set.Train[0]
	x := tensor.FromSlice(s.Image, net.InShape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := x
		for _, l := range net.Layers {
			y = l.Forward(y, true)
		}
		_, g := dnn.CrossEntropyLoss(y, s.Label)
		net.Backward(g)
	}
}

// BenchmarkServingThroughput measures the end-to-end serving path —
// microbatching queue, replica pool checkout, early-exit engine — as
// in-process classifications per second on the micro model.
func BenchmarkServingThroughput(b *testing.B) {
	net, set := microModel(b)
	srv := burstsnn.NewServer(burstsnn.ServeConfig{
		MaxBatch: 8,
		MaxDelay: time.Millisecond,
	})
	model, err := srv.Register(burstsnn.ServeModelConfig{
		Name:   "micro",
		Hybrid: burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst),
		Steps:  96,
	}, net, set.Train)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := set.Test[i%len(set.Test)]
			if _, err := srv.Classify(ctx, burstsnn.ClassifyRequest{Model: "micro", Image: s.Image}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	snap := model.Metrics().Snapshot()
	b.ReportMetric(snap.MeanSteps, "steps/req")
	b.ReportMetric(snap.MeanSpikes, "spikes/req")
	b.ReportMetric(snap.EarlyExitRate*100, "early-exit%")
}

// --- Ablations of the design choices (β, normalization) ---

// BenchmarkAblationBeta sweeps the burst constant β: larger β drains
// membranes in fewer spikes but with coarser payload granularity.
func BenchmarkAblationBeta(b *testing.B) {
	net, set := microModel(b)
	for _, beta := range []float64{1.5, 2, 4} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			var spikes, acc float64
			for i := 0; i < b.N; i++ {
				res, err := burstsnn.Evaluate(net, set, burstsnn.EvalConfig{
					Hybrid: burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst).WithBeta(beta),
					Steps:  64, MaxImages: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				best, _ := res.BestAccuracy()
				spikes, acc = res.SpikesPerImage, best
			}
			b.ReportMetric(spikes, "spikes/image")
			b.ReportMetric(acc*100, "best-acc%")
		})
	}
}

// BenchmarkAblationNorm compares max-based (Diehl'15) and percentile
// (Rueckauer'17) weight normalization.
func BenchmarkAblationNorm(b *testing.B) {
	net, set := microModel(b)
	methods := []struct {
		name string
		norm burstsnn.ConvertOptions
	}{
		{"max", func() burstsnn.ConvertOptions {
			o := burstsnn.DefaultConvertOptions(burstsnn.Real, burstsnn.Rate)
			o.Norm = burstsnn.MaxNorm
			return o
		}()},
		{"p99.9", burstsnn.DefaultConvertOptions(burstsnn.Real, burstsnn.Rate)},
	}
	for _, m := range methods {
		b.Run(m.name, func(b *testing.B) {
			var correct float64
			for i := 0; i < b.N; i++ {
				conv, err := burstsnn.Convert(net, set.Train, m.norm)
				if err != nil {
					b.Fatal(err)
				}
				hits := 0
				for _, s := range set.Test[:20] {
					if conv.Net.Run(s.Image, 64).FinalPrediction() == s.Label {
						hits++
					}
				}
				correct = float64(hits) / 20
			}
			b.ReportMetric(correct*100, "acc%")
		})
	}
}
