package serve

import (
	"context"
	"math"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
)

// allocNet builds a conv-bearing burst network (conv → maxpool → avgpool
// → dense → output) directly from random weights — no training — so the
// hot-path tests run in milliseconds.
func allocNet(t testing.TB, input coding.Scheme, seed uint64) *snn.Network {
	t.Helper()
	return goldenNet{outC: 4, stride: 1, gate: true}.build(t, input, coding.Burst, seed)
}

func allocImage(seed uint64, n int) []float64 {
	r := mathx.NewRNG(seed)
	img := make([]float64, n)
	for i := range img {
		img[i] = r.Float64()
	}
	return img
}

// TestClassifyZeroAlloc is the allocation regression gate for the
// serving hot path: once a replica's buffers have reached their
// high-watermark, Classify (Reset + Steps + early exit) must not
// allocate at all, for every input encoder, with the conv in either
// layout.
func TestClassifyZeroAlloc(t *testing.T) {
	for _, scheme := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, dense := range []bool{false, true} {
				net := goldenNet{outC: 4, stride: 1, gate: true, dense: dense}.build(t, scheme, coding.Burst, 0xA110C)
				img := allocImage(42, net.Encoder.Size())
				policy := ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
				Classify(net, img, policy) // reach the buffer high-watermark
				allocs := testing.AllocsPerRun(20, func() {
					Classify(net, img, policy)
				})
				if allocs != 0 {
					t.Errorf("dense=%v: Classify allocates %.1f objects/run in steady state, want 0", dense, allocs)
				}
			}
		})
	}
}

// sameOutcome reports whether a batch outcome matches the sequential
// engine's: every discrete field equal, Margin within 1e-3 relative.
func sameOutcome(got, want Outcome) bool {
	d := math.Abs(got.Margin - want.Margin)
	got.Margin = want.Margin
	return got == want && d <= 1e-3*math.Max(1, math.Abs(want.Margin))
}

// TestClassifyBatchMatchesSequential pins ClassifyBatch, on the simulator
// a pool replica's Batch hands out, to Classify: for every input encoder,
// a full 8-lane batch with per-lane policies (different budgets, stable
// windows, margins, disabled early exit, and a zero budget) must produce
// the same Outcomes — prediction, steps, early-exit flag, spike counts,
// margin within tolerance — as Classify run lane by lane, the reported
// batch step count must be the slowest lane's, and a reused simulator
// must carry no state into its next batch.
func TestClassifyBatchMatchesSequential(t *testing.T) {
	for _, scheme := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			net := allocNet(t, scheme, 0xBA7C4)
			seq, err := net.Clone()
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			pool, err := NewPool(net, 1)
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			rep, err := pool.Get(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Put(rep)
			bn, err := rep.Batch(8, true)
			if err != nil {
				t.Fatalf("Batch: %v", err)
			}
			policies := []ExitPolicy{
				{MaxSteps: 64, MinSteps: 8, StableWindow: 6},
				{MaxSteps: 64, MinSteps: 8, StableWindow: 6, Margin: 0.01},
				{MaxSteps: 24}, // no early exit, short budget
				{MaxSteps: 64, StableWindow: 3},
				{MaxSteps: 48, MinSteps: 16, StableWindow: 10},
				{MaxSteps: 64, MinSteps: 8, StableWindow: 6, Margin: 10}, // unreachable margin
				{MaxSteps: 33, MinSteps: 4, StableWindow: 2},
				{}, // zero budget: never steps, zero-value outcome like Classify
			}
			images := make([][]float64, len(policies))
			for i := range images {
				images[i] = allocImage(uint64(0xBEE0+i), net.Encoder.Size())
			}
			outs, batchSteps := ClassifyBatch(bn, images, policies)
			slowest := 0
			for i := range images {
				want := Classify(seq, images[i], policies[i])
				if !sameOutcome(outs[i], want) {
					t.Errorf("lane %d: batch %+v, sequential %+v", i, outs[i], want)
				}
				if outs[i].Steps > slowest {
					slowest = outs[i].Steps
				}
			}
			if batchSteps != slowest {
				t.Errorf("batch ran %d steps, slowest lane took %d", batchSteps, slowest)
			}
			// Second batch on the same network: no state bleed.
			outs2, _ := ClassifyBatch(bn, images[:3], policies[:3])
			for i := range outs2 {
				want := Classify(seq, images[i], policies[i])
				if !sameOutcome(outs2[i], want) {
					t.Errorf("reused batch lane %d: %+v, want %+v", i, outs2[i], want)
				}
			}
		})
	}
}

// TestClassifyFastMatchesReference runs the early-exit engine over both
// simulator paths and requires identical outcomes: prediction, simulated
// steps, early-exit flag, and spike counts.
func TestClassifyFastMatchesReference(t *testing.T) {
	for _, scheme := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			fast := allocNet(t, scheme, 0xEC0)
			ref, err := fast.Clone()
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			ref.Ref = true
			policy := ExitPolicy{MaxSteps: 64, MinSteps: 8, StableWindow: 6, Margin: 0.01}
			for i := 0; i < 8; i++ {
				img := allocImage(uint64(1000+i), fast.Encoder.Size())
				a := Classify(fast, img, policy)
				b := Classify(ref, img, policy)
				if a.Prediction != b.Prediction || a.Steps != b.Steps || a.EarlyExit != b.EarlyExit {
					t.Fatalf("image %d: fast %+v ref %+v", i, a, b)
				}
				if a.InputSpikes != b.InputSpikes || a.HiddenSpikes != b.HiddenSpikes {
					t.Fatalf("image %d: spikes fast %d/%d ref %d/%d",
						i, a.InputSpikes, a.HiddenSpikes, b.InputSpikes, b.HiddenSpikes)
				}
				if diff := a.Margin - b.Margin; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("image %d: margin fast %v ref %v", i, a.Margin, b.Margin)
				}
			}
		})
	}
}
