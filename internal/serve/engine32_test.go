package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
)

// hybridNet is allocNet with the hidden coding parameterized, so the
// float32 serving suite can sweep the full 24-hybrid equivalence corpus.
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

// TestClassifyBatch32EarlyExitEquivalence completes the float32 plane's
// tolerance contract at the serving level: across the full equivalence
// corpus (24 hybrids × B ∈ {1, 3, 8}) the float32 lockstep engine must
// produce the same prediction, the same simulated step count, the same
// early-exit flag, and the same spike counts as the float64 sequential
// engine, with margins within float32 accumulation tolerance. (The
// per-step spike-train part of the contract lives in
// snn.TestBatch32MatchesSequential.)
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
					bn, err := snn.NewBatchNetwork32(net, B)
					if err != nil {
						t.Fatalf("NewBatchNetwork32: %v", err)
					}
					images := make([][]float64, B)
					policies := make([]ExitPolicy, B)
					for i := range images {
						images[i] = allocImage(uint64(0xE77+i), net.Encoder.Size())
						policies[i] = ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
					}
					if B == 8 {
						// Vary the policies like the float64 suite does.
						policies[1].StableWindow = 3
						policies[2] = ExitPolicy{MaxSteps: 24}
						policies[3].MinSteps = 16
					}
					outs, _ := ClassifyBatch(bn, images, policies)
					for i := range images {
						want := Classify(seq, images[i], policies[i])
						got := outs[i]
						if got.Prediction != want.Prediction || got.Steps != want.Steps ||
							got.EarlyExit != want.EarlyExit {
							t.Fatalf("lane %d: f32 %+v, f64 %+v", i, got, want)
						}
						if got.InputSpikes != want.InputSpikes || got.HiddenSpikes != want.HiddenSpikes {
							t.Fatalf("lane %d: spikes f32 %d/%d f64 %d/%d",
								i, got.InputSpikes, got.HiddenSpikes, want.InputSpikes, want.HiddenSpikes)
						}
						if d := math.Abs(got.Margin - want.Margin); d > 1e-3*math.Max(1, math.Abs(want.Margin)) {
							t.Fatalf("lane %d: margin f32 %v f64 %v", i, got.Margin, want.Margin)
						}
					}
				})
			}
		}
	}
}

// TestClassifyBatch32CrossTier closes the conformance loop at the
// serving level: the full early-exit engine — argmax polling, stability
// windows, margins, lane retirement — must produce exactly the same
// Outcome under every available kernel dispatch tier, Margin included
// (the tiers compute identical rounded float32 operations, so even the
// derived float64 margin is bit-equal). Mixed per-lane policies force
// staggered retirements so the compaction paths run under every tier
// too.
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
				bn, err := snn.NewBatchNetwork32(net, B)
				if err != nil {
					t.Fatalf("NewBatchNetwork32: %v", err)
				}
				outs, steps := ClassifyBatch(bn, images, policies)
				if li == 0 {
					ref, refSteps = outs, steps
					continue
				}
				if steps != refSteps {
					t.Fatalf("tier %s: batch steps %d, %s %d", lv, steps, levels[0], refSteps)
				}
				for i := range ref {
					if outs[i] != ref[i] {
						t.Fatalf("lane %d: tier %s %+v, %s %+v", i, lv, outs[i], levels[0], ref[i])
					}
				}
			}
		})
	}
}

// TestMetricsReportsDispatchTier pins the observability half of the
// dispatch ladder: /metrics must name the tier the model's kernels
// actually run on — for every forceable tier, the registered model's
// batchKernel snapshot equals kernels.Kind() at registration time.
func TestMetricsReportsDispatchTier(t *testing.T) {
	defer kernels.ForceLevel("")
	net, set := testModel(t)
	wantKind := map[string]string{
		kernels.LevelPurego: "f32",
		kernels.LevelSSE:    "f32-sse",
		kernels.LevelAVX2:   "f32-avx2",
		kernels.LevelAVX512: "f32-avx2", // the f32 plane has no avx512 forms
	}
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			t.Fatal(err)
		}
		s := New(Config{})
		m, err := s.Register(ModelConfig{
			Name:        "digits",
			Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
			Steps:       testSteps,
			Replicas:    1,
			NormSamples: 16,
		}, net, set.Train)
		if err != nil {
			t.Fatalf("tier %s: %v", lv, err)
		}
		if got := m.Metrics().Snapshot().BatchKernel; got != wantKind[lv] || got != kernels.Kind() {
			t.Fatalf("tier %s: batchKernel = %q, want %q (= kernels.Kind() %q)",
				lv, got, wantKind[lv], kernels.Kind())
		}
		_ = s.Shutdown(context.Background())
	}
}

// TestLockstepAutoResolution pins the scheduler-resolution rule: the
// auto default never dispatches lockstep, on any dispatch tier (the
// sequential engine is the faster one at every measured batch width),
// and explicit on/off resolve to the forced static thresholds.
func TestLockstepAutoResolution(t *testing.T) {
	defer kernels.ForceLevel("")
	net, set := testModel(t)
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			t.Fatal(err)
		}
		for mode, want := range map[string]int{LockstepAuto: 0, LockstepOn: 2, LockstepOff: 0} {
			s := New(Config{LockstepBatch: mode})
			if _, err := s.Register(ModelConfig{
				Name:        "digits",
				Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
				Steps:       testSteps,
				Replicas:    1,
				NormSamples: 16,
			}, net, set.Train); err != nil {
				t.Fatalf("tier %s mode %s: %v", lv, mode, err)
			}
			s.mu.Lock()
			sched := s.entries["digits"].batcher.sched
			s.mu.Unlock()
			if sched.Min() != want {
				t.Fatalf("tier %s mode %s: static min = %v, want %v", lv, mode, sched.Min(), want)
			}
			_ = s.Shutdown(context.Background())
		}
	}
	s := New(Config{LockstepBatch: "sometimes"})
	if _, err := s.Register(ModelConfig{
		Name:        "digits",
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		NormSamples: 16,
	}, net, set.Train); err == nil {
		t.Fatal("invalid LockstepBatch value accepted")
	}
}

// TestBatcherRunsF32Lockstep pins the serving integration of the float32
// plane: a batcher executes microbatches through BatchNetwork32 and
// every request receives the
// outcome the sequential engine produces (the corpus part of the
// tolerance contract), with the batch gauges advancing.
func TestBatcherRunsF32Lockstep(t *testing.T) {
	pool, image := testPool(t, 1)
	metrics := NewMetrics()
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
			if out.Prediction != want[i].Prediction || out.Steps != want[i].Steps ||
				out.EarlyExit != want[i].EarlyExit ||
				out.InputSpikes != want[i].InputSpikes || out.HiddenSpikes != want[i].HiddenSpikes {
				t.Errorf("request %d: f32 batched %+v, sequential %+v", i, out, want[i])
			}
		}(i)
	}
	wg.Wait()
	b.Close() // a batch is counted after its replies go out; wait for that
	if s := metrics.Snapshot(); s.Batches < 1 {
		t.Errorf("no f32 lockstep batches recorded: %+v", s)
	}
}

// TestBatcherDedupesIdenticalRequests checks the duplicate fan-out: a
// microbatch carrying several identical (image, policy) requests — plus
// distinct ones and a same-image/different-policy pair — simulates each
// unique request once, answers every duplicate with its representative's
// outcome, and counts the fan-outs in dedupedRequests.
func TestBatcherDedupesIdenticalRequests(t *testing.T) {
	for _, lockstepMin := range []int{0, 2} {
		name := "sequential"
		if lockstepMin > 0 {
			name = "lockstep"
		}
		t.Run(name, func(t *testing.T) {
			pool, image := testPool(t, 1)
			metrics := NewMetrics()
			distinct := append([]float64(nil), image...)
			distinct[3] = 0.5
			policyA := ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
			policyB := ExitPolicy{MaxSteps: 32, MinSteps: 8, StableWindow: 6}
			var wantSame, wantDistinct, wantB Outcome
			func() {
				rep, err := pool.Get(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Put(rep)
				wantSame = Classify(rep.Net, image, policyA)
				wantDistinct = Classify(rep.Net, distinct, policyA)
				wantB = Classify(rep.Net, image, policyB)
			}()

			var sched *StaticSched
			if lockstepMin > 0 {
				sched = NewStaticSched(lockstepMin)
			}
			b := NewBatcher(pool, BatcherConfig{
				Metrics: metrics, Sched: sched, MaxBatch: 8, MaxDelay: 300 * time.Millisecond,
			})
			defer b.Close()
			type sub struct {
				image  []float64
				policy ExitPolicy
				want   Outcome
			}
			subs := []sub{
				{image, policyA, wantSame},
				{image, policyA, wantSame},                            // duplicate
				{append([]float64(nil), image...), policyA, wantSame}, // duplicate (distinct backing array)
				{distinct, policyA, wantDistinct},
				{image, policyB, wantB}, // same image, different policy: NOT a duplicate
			}
			var wg sync.WaitGroup
			for i, s := range subs {
				wg.Add(1)
				go func(i int, s sub) {
					defer wg.Done()
					out, err := b.Submit(context.Background(), s.image, s.policy)
					if err != nil {
						t.Errorf("submit %d: %v", i, err)
						return
					}
					if !sameOutcome(out, s.want) {
						t.Errorf("request %d: got %+v, want %+v", i, out, s.want)
					}
				}(i, s)
			}
			wg.Wait()
			s := metrics.Snapshot()
			if s.DedupedRequests != 2 {
				t.Errorf("dedupedRequests = %d, want 2: %+v", s.DedupedRequests, s)
			}
		})
	}
}
