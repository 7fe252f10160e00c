package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
)

// The batch benchmark mode (-batch FILE) measures the lockstep batch
// simulator against back-to-back sequential classification on the
// conv-bearing hot-path model, across a batch-size sweep and across
// kernel dispatch tiers, and writes a machine-readable artifact so the
// perf trajectory captures batching — not just single-image latency.
//
// Each point is one (B, kernel, level) triple, measured once per
// dispatch tier this machine can run ("f32", "f32-sse", "f32-avx2" —
// forced via kernels.ForceLevel for the point's duration), so one
// artifact carries the whole ladder. The sequential baseline is repeated
// on every B so a single point is self-contained run-over-run.

type batchPoint struct {
	B int `json:"b"`
	// Kernel is the dispatch tier name measured ("f32", "f32-sse",
	// "f32-avx2" — see internal/kernels.Kind).
	Kernel string `json:"kernel"`
	// Level is the kernel dispatch tier ("purego", "sse", "avx2").
	Level string `json:"level,omitempty"`
	// SeqImagesPerSec is the back-to-back baseline (one replica classifies
	// the batch's images sequentially on the float64 fast path);
	// LockstepImagesPerSec runs the same images through ClassifyBatch on
	// the same weights under this point's kernel. Predictions and step
	// counts agree across all variants (bit-identical across tiers, the
	// tolerance contract against the sequential engine), so the ratio is
	// pure execution efficiency.
	SeqImagesPerSec      float64 `json:"seqImagesPerSec"`
	LockstepImagesPerSec float64 `json:"lockstepImagesPerSec"`
	Speedup              float64 `json:"speedup"`
	// MeanOccupancy is the mean lanes per event column over the run — the
	// amortization factor the lockstep scatter actually saw.
	MeanOccupancy float64 `json:"meanOccupancy"`
	// BatchSteps is the lockstep step count (slowest lane); LaneStepsSum
	// totals the per-lane early-exit steps, so LaneStepsSum/B compares to
	// BatchSteps as the retirement win.
	BatchSteps   int `json:"batchSteps"`
	LaneStepsSum int `json:"laneStepsSum"`
}

type batchArtifact struct {
	Schema    string `json:"schema"`
	When      string `json:"when"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Model     string `json:"model"`
	// DetectedLevel is the widest kernel dispatch tier this machine
	// supports; Levels lists every tier the artifact has float32 points
	// for (the ladder up to DetectedLevel on this build).
	DetectedLevel string       `json:"detectedLevel"`
	Levels        []string     `json:"levels"`
	Points        []batchPoint `json:"points"`
}

// hotpathModel trains the small conv-bearing LeNetMini used by the
// end-to-end benches (same recipe as the bench_test micro model).
func hotpathModel() (*dnn.Network, *dataset.Set, error) {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass = 40, 8
	set := dataset.SynthTextures(cfg)
	net, err := dnn.Build(dnn.LeNetMini(3, 16, 16, 10), mathx.NewRNG(1))
	if err != nil {
		return nil, nil, err
	}
	dnn.Train(net, set, dnn.NewAdam(0.005), dnn.TrainConfig{Epochs: 3, BatchSize: 32, Seed: 2})
	return net, set, nil
}

func runBatchBench(outPath string) error {
	net, set, err := hotpathModel()
	if err != nil {
		return err
	}
	conv, err := convert.Convert(net, set.Train, convert.DefaultOptions(coding.Phase, coding.Burst))
	if err != nil {
		return err
	}
	defer kernels.ForceLevel("")
	art := batchArtifact{
		Schema:        "burstsnn/bench-batch/v3",
		When:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Model:         "lenet-mini phase-burst (hotpath model)",
		DetectedLevel: kernels.DetectedLevel(),
		Levels:        kernels.Available(),
	}
	for _, B := range []int{1, 2, 4, 8} {
		fmt.Fprintf(os.Stderr, "batch: B=%d...\n", B)
		images := make([][]float64, B)
		policies := make([]serve.ExitPolicy, B)
		for i := range images {
			images[i] = set.Test[i%len(set.Test)].Image
			policies[i] = serve.DefaultExitPolicy(96)
		}
		seq := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, img := range images {
					serve.Classify(conv.Net, img, policies[0])
				}
			}
		})
		seqRate := float64(B) * float64(seq.N) / seq.T.Seconds()

		// One point per available dispatch tier.
		for _, level := range kernels.Available() {
			if err := kernels.ForceLevel(level); err != nil {
				return err
			}
			bn, err := snn.NewBatchNetwork32(conv.Net, B)
			if err != nil {
				return err
			}
			pt := batchPoint{B: B, Kernel: bn.Kernel(), Level: level, SeqImagesPerSec: seqRate}

			// Occupancy + step accounting from one instrumented run.
			var cols, laneEvents int
			setProbes(bn, func(c, e int) { cols += c; laneEvents += e })
			outs, batchSteps := serve.ClassifyBatch(bn, images, policies)
			pt.BatchSteps = batchSteps
			for i, o := range outs {
				pt.LaneStepsSum += o.Steps
				// The planes must agree on outcomes (the tolerance
				// contract); a divergence here means the artifact is
				// comparing different work, so flag it loudly.
				if want := serve.Classify(conv.Net, images[i], policies[i]); o.Prediction != want.Prediction || o.Steps != want.Steps {
					fmt.Fprintf(os.Stderr, "batch: WARNING: kernel %s lane %d diverged from sequential (pred %d/%d steps %d/%d)\n",
						pt.Kernel, i, o.Prediction, want.Prediction, o.Steps, want.Steps)
				}
			}
			if cols > 0 {
				pt.MeanOccupancy = float64(laneEvents) / float64(cols)
			}
			setProbes(bn, nil)

			lock := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					serve.ClassifyBatch(bn, images, policies)
				}
			})
			pt.LockstepImagesPerSec = float64(B) * float64(lock.N) / lock.T.Seconds()
			if pt.SeqImagesPerSec > 0 {
				pt.Speedup = pt.LockstepImagesPerSec / pt.SeqImagesPerSec
			}
			art.Points = append(art.Points, pt)
			fmt.Fprintf(os.Stderr, "batch: B=%d %s seq %.1f img/s, lockstep %.1f img/s (%.2fx), occupancy %.2f\n",
				B, pt.Kernel, pt.SeqImagesPerSec, pt.LockstepImagesPerSec, pt.Speedup, pt.MeanOccupancy)
		}
		if err := kernels.ForceLevel(""); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "batch: artifact written to %s\n", outPath)
	return nil
}

// setProbes attaches (or, with a nil count, detaches) an event-column
// observer on every stage of a lockstep simulator.
func setProbes(bn *snn.BatchNetwork32, count func(cols, laneEvents int)) {
	var p snn.BatchProbe32
	if count != nil {
		p = func(_ int, ev *coding.BatchEvents32) { count(ev.Cols(), ev.LaneEvents()) }
	}
	for li := -1; li < len(bn.Layers); li++ {
		bn.AttachProbe(li, p)
	}
}
