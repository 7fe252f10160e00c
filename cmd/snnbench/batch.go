package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
	"burstsnn/internal/dataset"
	"burstsnn/internal/kernels"
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
// on every B so a single point is self-contained run-over-run. The
// -batch-prev gate compares like-for-like tiers only:
// a point is gated against a previous point with the same triple, and
// tiers absent from either artifact (a runner without AVX2, say) are
// skipped, not failed.

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
	// Staggered records the exit-aware batch-forming measurement on the
	// mixed early/late-exit workload (additive field; points above are
	// unchanged, so the like-for-like gate keeps covering them).
	Staggered *staggeredResult `json:"staggered,omitempty"`
}

// staggeredResult measures what exit-aware batch forming buys on a
// staggered-exit workload: the same requests — half aggressive
// early-exit policies, half full-budget, interleaved in arrival order —
// are chunked FIFO and then re-ordered by the exit history's predicted
// exit steps (serve.OrderByPredictedExit), and each forming runs through
// the lockstep simulator with occupancy probes attached. Grouping lanes
// that retire together keeps columns full, so ExitAwareMeanOccupancy >
// FIFOMeanOccupancy is the number the scheduling plane's forming rule
// stands on.
type staggeredResult struct {
	// Requests is the workload size and LaneCap the lockstep chunk bound
	// (requests/laneCap chunks per forming).
	Requests int `json:"requests"`
	LaneCap  int `json:"laneCap"`
	// PredictedLanes counts lanes the warmed exit history predicted (out
	// of Requests; the rest formed in arrival order).
	PredictedLanes int `json:"predictedLanes"`
	// Kernel is the lockstep variant measured (the ambient dispatch tier).
	Kernel string `json:"kernel"`
	// FIFO/ExitAware mean event-column occupancy (lanes per scatter
	// column) and summed lockstep steps across the chunks of each
	// forming. Fewer steps at higher occupancy = the same work in fuller
	// columns.
	FIFOMeanOccupancy      float64 `json:"fifoMeanOccupancy"`
	ExitAwareMeanOccupancy float64 `json:"exitAwareMeanOccupancy"`
	FIFOBatchSteps         int     `json:"fifoBatchSteps"`
	ExitAwareBatchSteps    int     `json:"exitAwareBatchSteps"`
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
	stag, err := runStaggeredBench(conv.Net, set)
	if err != nil {
		return err
	}
	art.Staggered = stag
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

// runStaggeredBench measures FIFO vs exit-aware batch forming on a
// staggered-exit workload: 16 distinct images, alternating an aggressive
// early-exit policy with a full-budget one, chunked through an
// 8-lane lockstep simulator. FIFO forming takes arrival order (every
// chunk mixes early and late lanes, so retirements drain each chunk's
// columns); exit-aware forming re-orders by the warmed exit history's
// predictions (serve.OrderByPredictedExit — the batcher's rule), which
// groups lanes that retire together. Occupancy probes measure what the
// scatter columns actually saw either way, and outcomes are checked
// against the sequential engine so the comparison never trades
// correctness for occupancy.
func runStaggeredBench(net *snn.Network, set *dataset.Set) (*staggeredResult, error) {
	const (
		requests = 16
		laneCap  = 8
		budget   = 96
	)
	early := serve.ExitPolicy{MaxSteps: budget, MinSteps: 8, StableWindow: 6}
	late := serve.ExitPolicy{MaxSteps: budget}
	images := make([][]float64, requests)
	policies := make([]serve.ExitPolicy, requests)
	for i := range images {
		images[i] = set.Test[i%len(set.Test)].Image
		if i%2 == 0 {
			policies[i] = early
		} else {
			policies[i] = late
		}
	}

	// Sequential reference outcomes double as the exit-history warmup
	// (two sightings per key: entries store on the second, like the
	// serving batcher would after two classifications of the same image).
	history := serve.NewExitHistory(0, coding.NewInterner(requests))
	want := make([]serve.Outcome, requests)
	for i := range images {
		want[i] = serve.Classify(net, images[i], policies[i])
		hash := coding.HashImage(images[i])
		history.Record(hash, images[i], policies[i], want[i].Steps)
		history.Record(hash, images[i], policies[i], want[i].Steps)
	}
	preds := make([]int, requests)
	predicted := 0
	for i := range images {
		if steps, ok := history.Predict(coding.HashImage(images[i]), images[i], policies[i]); ok {
			preds[i] = steps
			predicted++
		}
	}

	bn, err := snn.NewBatchNetwork32(net, laneCap)
	if err != nil {
		return nil, err
	}
	res := &staggeredResult{
		Requests:       requests,
		LaneCap:        laneCap,
		PredictedLanes: predicted,
		Kernel:         bn.Kernel(),
	}

	// run executes one forming (a lane order) in laneCap chunks with
	// occupancy probes attached, returning mean column occupancy and the
	// summed lockstep steps.
	run := func(order []int) (float64, int) {
		var cols, laneEvents, stepsSum int
		setProbes(bn, func(c, e int) { cols += c; laneEvents += e })
		defer setProbes(bn, nil)
		for at := 0; at < len(order); at += laneCap {
			chunk := order[at:min(at+laneCap, len(order))]
			imgs := make([][]float64, len(chunk))
			pols := make([]serve.ExitPolicy, len(chunk))
			for i, idx := range chunk {
				imgs[i] = images[idx]
				pols[i] = policies[idx]
			}
			outs, batchSteps := serve.ClassifyBatch(bn, imgs, pols)
			stepsSum += batchSteps
			for i, idx := range chunk {
				if outs[i].Prediction != want[idx].Prediction || outs[i].Steps != want[idx].Steps {
					fmt.Fprintf(os.Stderr, "batch: WARNING: staggered lane %d diverged from sequential (pred %d/%d steps %d/%d)\n",
						idx, outs[i].Prediction, want[idx].Prediction, outs[i].Steps, want[idx].Steps)
				}
			}
		}
		if cols == 0 {
			return 0, stepsSum
		}
		return float64(laneEvents) / float64(cols), stepsSum
	}

	fifo := make([]int, requests)
	for i := range fifo {
		fifo[i] = i
	}
	res.FIFOMeanOccupancy, res.FIFOBatchSteps = run(fifo)
	res.ExitAwareMeanOccupancy, res.ExitAwareBatchSteps = run(serve.OrderByPredictedExit(preds))
	fmt.Fprintf(os.Stderr, "batch: staggered %s occupancy FIFO %.2f (%d steps) -> exit-aware %.2f (%d steps), %d/%d lanes predicted\n",
		res.Kernel, res.FIFOMeanOccupancy, res.FIFOBatchSteps,
		res.ExitAwareMeanOccupancy, res.ExitAwareBatchSteps, predicted, requests)
	return res, nil
}

// compareBatch is the batched-throughput regression gate: it reads a
// previous BENCH_batch.json and the one just written and fails when a
// point's lockstep throughput regressed by more than tolerance
// (fractional). Comparison is strictly like-for-like: points pair on the
// (B, kernel, level) triple, so an f32-avx2 point is never judged
// against an f32-sse measurement, and a tier present in only one
// artifact (different runner capabilities, or a pre-dispatch artifact)
// is skipped with a note rather than failed. A schema change skips the
// whole comparison (first run after a format bump records a baseline).
func compareBatch(prevPath, newPath string, tolerance float64) error {
	load := func(path string) (*batchArtifact, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var art batchArtifact
		if err := json.Unmarshal(data, &art); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &art, nil
	}
	prev, err := load(prevPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	if prev.Schema != cur.Schema {
		fmt.Fprintf(os.Stderr, "batch: schema changed (%s -> %s), skipping comparison\n", prev.Schema, cur.Schema)
		return nil
	}
	key := func(p batchPoint) string { return fmt.Sprintf("B=%d/%s/%s", p.B, p.Kernel, p.Level) }
	prevPts := map[string]batchPoint{}
	for _, p := range prev.Points {
		prevPts[key(p)] = p
	}
	var failures []string
	for _, c := range cur.Points {
		p, ok := prevPts[key(c)]
		if !ok {
			fmt.Fprintf(os.Stderr, "batch:  %-18s no like-for-like previous point, skipping\n", key(c))
			continue
		}
		if p.LockstepImagesPerSec <= 0 {
			continue
		}
		ratio := c.LockstepImagesPerSec/p.LockstepImagesPerSec - 1
		mark := " "
		if -ratio > tolerance {
			mark = "!"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f img/s (%+.1f%%)",
				key(c), p.LockstepImagesPerSec, c.LockstepImagesPerSec, ratio*100))
		}
		fmt.Fprintf(os.Stderr, "batch:%s %-18s %+.1f%% lockstep img/s vs previous\n", mark, key(c), ratio*100)
	}
	if len(failures) > 0 {
		return fmt.Errorf("batched-throughput regression beyond %.0f%%:\n  %s", tolerance*100, strings.Join(failures, "\n  "))
	}
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
