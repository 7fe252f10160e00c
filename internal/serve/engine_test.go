package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

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
// allocate at all, for every input encoder.
func TestClassifyZeroAlloc(t *testing.T) {
	for _, scheme := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			net := allocNet(t, scheme, 0xA110C)
			img := allocImage(42, net.Encoder.Size())
			policy := ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
			Classify(net, img, policy) // reach the buffer high-watermark
			allocs := testing.AllocsPerRun(20, func() {
				Classify(net, img, policy)
			})
			if allocs != 0 {
				t.Errorf("Classify allocates %.1f objects/run in steady state, want 0", allocs)
			}
		})
	}
}

// sameOutcome reports whether a lockstep outcome matches the sequential
// engine's under the float32 tolerance contract: every discrete field
// equal, Margin within float32 accumulation tolerance.
func sameOutcome(got, want Outcome) bool {
	d := math.Abs(got.Margin - want.Margin)
	got.Margin = want.Margin
	return got == want && d <= 1e-3*math.Max(1, math.Abs(want.Margin))
}

// TestClassifyBatchMatchesSequential pins the batched engine to the
// sequential one: for every input encoder, a full 8-lane batch with
// per-lane policies (different budgets, stable windows, margins,
// disabled early exit, and a zero budget) must produce the same Outcomes
// — prediction, steps, early-exit flag, spike counts, margin within
// tolerance — as Classify run lane by lane, the reported batch step
// count must be the slowest lane's, and a reused simulator must carry no
// state into its next batch.
func TestClassifyBatchMatchesSequential(t *testing.T) {
	for _, scheme := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			net := allocNet(t, scheme, 0xBA7C4)
			seq, err := net.Clone()
			if err != nil {
				t.Fatalf("clone: %v", err)
			}
			bn, err := snn.NewBatchNetwork32(net, 8)
			if err != nil {
				t.Fatalf("NewBatchNetwork32: %v", err)
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

// TestBatcherRunsLockstepBatches checks the serving integration: a
// filled microbatch is executed through the lockstep simulator (visible
// in the batch gauges) and every request still gets the outcome the
// sequential engine would produce.
func TestBatcherRunsLockstepBatches(t *testing.T) {
	pool, image := testPool(t, 1)
	metrics := NewMetrics()
	// Distinct images: perturb a few pixels so lanes differ.
	images := make([][]float64, 4)
	for i := range images {
		img := append([]float64(nil), image...)
		for j := 0; j <= i; j++ {
			img[j*7] = float64(j+1) / 8
		}
		images[i] = img
	}
	policy := ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
	want := make([]Outcome, len(images))
	func() {
		rep, err := pool.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Put(rep)
		for i, img := range images {
			want[i] = Classify(rep.Net, img, policy)
		}
	}()

	// Generous delay so all four submissions join one batch.
	b := NewBatcher(pool, BatcherConfig{
		Metrics: metrics, Sched: NewStaticSched(2), MaxBatch: 4, MaxDelay: 300 * time.Millisecond,
	})
	defer b.Close()
	var wg sync.WaitGroup
	for i := range images {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Submit(context.Background(), images[i], policy)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if !sameOutcome(out, want[i]) {
				t.Errorf("request %d: batched %+v, sequential %+v", i, out, want[i])
			}
		}(i)
	}
	wg.Wait()
	b.Close() // a batch is counted after its replies go out; wait for that
	s := metrics.Snapshot()
	if s.Batches < 1 {
		t.Errorf("no lockstep batches recorded: %+v", s)
	}
	if s.MeanBatchOccupancy < 2 {
		t.Errorf("mean batch occupancy %.1f, want >= 2 (requests were concurrent)", s.MeanBatchOccupancy)
	}
}

// TestBatcherClampsLaneCap guards the MaxBatch > snn.MaxBatchLanes case:
// the lockstep simulator caps at 64 lanes, and a larger configured batch
// must be clamped (and chunked), not silently degraded to sequential
// execution via a sticky construction error.
func TestBatcherClampsLaneCap(t *testing.T) {
	pool, image := testPool(t, 1)
	metrics := NewMetrics()
	b := NewBatcher(pool, BatcherConfig{
		Metrics: metrics, Sched: NewStaticSched(2), MaxBatch: 128, MaxDelay: 300 * time.Millisecond,
	})
	defer b.Close()
	policy := ExitPolicy{MaxSteps: 16}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		// Distinct images, so the dedupe stage can't collapse the batch
		// before it reaches the lockstep path.
		img := append([]float64(nil), image...)
		img[0] = float64(i+1) / 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), img, policy); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	b.Close() // a batch is counted after its replies go out; wait for that
	if s := metrics.Snapshot(); s.Batches < 1 {
		t.Errorf("MaxBatch beyond the lane cap disabled lockstep batching: %+v", s)
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
