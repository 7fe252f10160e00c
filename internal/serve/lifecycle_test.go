package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
)

// altTestModel is a second, structurally different net over the same
// dataset (narrower hidden layer, one epoch): weak enough that its
// predictions diverge from testNet's on some probe images, which is what
// the stale-weights tests key on.
var (
	altOnce sync.Once
	altNet  *dnn.Network
)

func altTestModel(t *testing.T) *dnn.Network {
	t.Helper()
	testModel(t) // builds testSet
	altOnce.Do(func() {
		net, err := dnn.Build(dnn.MLP(1, 28, 28, []int{16}, 10), mathx.NewRNG(31))
		if err != nil {
			panic(err)
		}
		dnn.Train(net, testSet, dnn.NewAdam(0.01), dnn.TrainConfig{
			Epochs: 1, BatchSize: 32, Seed: 13,
		})
		altNet = net
	})
	return altNet
}

func lifecycleModelConfig(name string) ModelConfig {
	return ModelConfig{
		Name:        name,
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		Replicas:    2,
		NormSamples: 32,
	}
}

// classifyPreds runs the probe images through one model and returns the
// predictions.
func classifyPreds(t *testing.T, s *Server, model string, images [][]float64) []int {
	t.Helper()
	preds := make([]int, len(images))
	for i, img := range images {
		res, err := s.Classify(context.Background(), ClassifyRequest{Model: model, Image: img})
		if err != nil {
			t.Fatalf("classify %s image %d: %v", model, i, err)
		}
		preds[i] = res.Prediction
	}
	return preds
}

func probeImages(n int) [][]float64 {
	images := make([][]float64, n)
	for i := range images {
		images[i] = testSet.Test[i%len(testSet.Test)].Image
	}
	return images
}

// noiseImage returns a unique valid image (the batcher's dedupe and any
// response cache cannot absorb it).
func noiseImage(i int) []float64 {
	img := append([]float64(nil), testSet.Test[i%len(testSet.Test)].Image...)
	img[0] = float64(i%1000+1) / 2000
	return img
}

// TestConcurrentReregisterNoStaleWeights is the stale-weights regression
// pin: once Register returns, every subsequent request must be served by
// the NEW weights — under concurrent load, with no window where a
// request pairs the new registration with the old batcher (or vice
// versa). Before the atomic (model, batcher) entry swap, the displaced
// batcher kept serving the old weights after Register returned, and this
// test's post-swap assertions fail.
func TestConcurrentReregisterNoStaleWeights(t *testing.T) {
	net, set := testModel(t)
	alt := altTestModel(t)
	s := New(Config{QueueDepth: 256, ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register v1: %v", err)
	}

	// Reference predictions per registration, measured without churn.
	images := probeImages(10)
	predsV1 := classifyPreds(t, s, "digits", images)
	if _, err := s.Register(lifecycleModelConfig("digits"), alt, set.Train); err != nil {
		t.Fatalf("Register v2: %v", err)
	}
	predsV2 := classifyPreds(t, s, "digits", images)
	var diff []int
	for i := range images {
		if predsV1[i] != predsV2[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) == 0 {
		t.Skip("v1 and v2 agree on every probe image; no stale-weights discriminator")
	}

	// Background load keeps the old batcher's queue non-empty across
	// every swap, so the handoff path actually carries requests.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for w := 0; w < 4; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Classify(context.Background(), ClassifyRequest{
					Model: "digits", Image: noiseImage(w*10000 + i),
				})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("background classify: %v", err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 6; round++ {
		target, want := net, predsV1
		if round%2 == 0 {
			target, want = alt, predsV2
		}
		if _, err := s.Register(lifecycleModelConfig("digits"), target, set.Train); err != nil {
			t.Fatalf("round %d Register: %v", round, err)
		}
		// Register has returned: the swap must already be complete.
		for _, i := range diff {
			res, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: images[i]})
			if err != nil {
				t.Fatalf("round %d image %d: %v", round, i, err)
			}
			if res.Prediction != want[i] {
				t.Fatalf("round %d image %d: prediction %d from the displaced registration, want %d — stale weights served after Register returned",
					round, i, res.Prediction, want[i])
			}
		}
	}
	close(stop)
	bg.Wait()
}

// TestReregisterUnderLoadNoDrops: a hot swap may cost latency, never an
// error — concurrent requests across repeated re-registrations must all
// either succeed or shed with ErrOverloaded.
func TestReregisterUnderLoadNoDrops(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{QueueDepth: 256, ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const (
		workers = 8
		perW    = 30
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_, err := s.Classify(context.Background(), ClassifyRequest{
					Model: "digits", Image: noiseImage(w*1000 + i),
				})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					errCh <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestUnregisterInFlight: unregistering drains — requests already queued
// finish on the still-live pool; only requests arriving afterwards see
// an unknown model.
func TestUnregisterInFlight(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{
		MaxBatch: 2, QueueDepth: 64, ResponseCacheSize: -1,
		InjectLatency: 20 * time.Millisecond,
	})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	cfg := lifecycleModelConfig("digits")
	cfg.Replicas = 1
	if _, err := s.Register(cfg, net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const inflight = 10
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Classify(context.Background(), ClassifyRequest{
				Model: "digits", Image: noiseImage(i),
			})
		}(i)
	}
	// Let the requests reach the queue (the injected latency holds the
	// single replica on the first batch), then pull the model.
	time.Sleep(60 * time.Millisecond)
	if err := s.Unregister("digits"); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d failed across unregister: %v", i, err)
		}
	}
	if _, err := s.Classify(context.Background(), ClassifyRequest{
		Model: "digits", Image: noiseImage(0),
	}); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("post-unregister classify: %v, want unknown model", err)
	}
	if got := len(s.Registry().ListAll()); got != 0 {
		t.Errorf("ListAll after unregister: %d models, want 0", got)
	}
	if err := s.Unregister("digits"); err == nil {
		t.Error("second Unregister should fail")
	}
}

// TestEvictWarmRoundTrip: evict releases the pool but archives the
// conversion; the next request warms the model back in with identical
// behavior (prediction, steps, spikes) and continuous counters.
func TestEvictWarmRoundTrip(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}

	images := probeImages(4)
	type outcome struct{ pred, steps, spikes int }
	classify := func() []outcome {
		out := make([]outcome, len(images))
		for i, img := range images {
			res, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img})
			if err != nil {
				t.Fatalf("classify image %d: %v", i, err)
			}
			out[i] = outcome{res.Prediction, res.Steps, res.Spikes}
		}
		return out
	}
	want := classify()
	preRequests := mustSnapshot(t, s).Requests

	for cycle := 1; cycle <= 2; cycle++ {
		if err := s.Evict("digits"); err != nil {
			t.Fatalf("cycle %d Evict: %v", cycle, err)
		}
		if got := len(s.Registry().List()); got != 0 {
			t.Fatalf("cycle %d: %d resident models after evict, want 0", cycle, got)
		}
		all := s.Registry().ListAll()
		if len(all) != 1 || all[0].State != StateEvicted {
			t.Fatalf("cycle %d: ListAll = %+v, want one evicted entry", cycle, all)
		}
		// The next classify warms the model back in transparently.
		if got := classify(); got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
			t.Fatalf("cycle %d: post-warm outcomes %+v, want %+v", cycle, got, want)
		}
	}
	snap := mustSnapshot(t, s)
	if snap.Evictions != 2 || snap.Warms != 2 {
		t.Errorf("evictions/warms = %d/%d, want 2/2", snap.Evictions, snap.Warms)
	}
	if wantReq := preRequests + int64(2*len(images)); snap.Requests != wantReq {
		t.Errorf("requests = %d, want %d — counters must be continuous across evict/warm", snap.Requests, wantReq)
	}
	if st := s.snapshotModels()["digits"].State; st != StateResident {
		t.Errorf("state = %q after warm, want %q", st, StateResident)
	}
}

// cacheCounters is the six memo-view counters of a snapshot, in one
// comparable value.
type cacheCounters struct {
	respHits, respMisses, exitHits, exitMisses, encHits, encMisses int64
}

func cacheCountersOf(s Snapshot) cacheCounters {
	return cacheCounters{
		s.ResponseCacheHits, s.ResponseCacheMisses,
		s.ExitHistoryHits, s.ExitHistoryMisses,
		s.EncoderCacheHits, s.EncoderCacheMisses,
	}
}

// TestCacheCountersContinuousAcrossCycles: the six cache counters are
// Prometheus counters and live in the retained accumulator, so neither
// an evict/warm cycle nor a re-register may run them backwards — the
// fresh views count on from where the released ones stopped, and the
// evicted row keeps reporting the archived values in between. (Views
// owning their counters would restart all six at every install.)
func TestCacheCountersContinuousAcrossCycles(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{}) // response cache on
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// A small hot set, each round's requests in flight together so
	// multi-lane batches form and the exit history is consulted too.
	hot := probeImages(6)
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for _, img := range hot {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img}); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
	}
	before := cacheCountersOf(mustSnapshot(t, s))
	if before.respHits != 12 || before.respMisses != 12 || before.encMisses == 0 {
		t.Fatalf("after four rounds of six hot images: %+v, want 12 response hits, 12 misses, some encoder misses", before)
	}

	if err := s.Evict("digits"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if row := s.snapshotModels()["digits"]; row.State != StateEvicted || cacheCountersOf(row) != before {
		t.Fatalf("evicted row reports %+v (state %q), want the archived %+v", cacheCountersOf(row), row.State, before)
	}
	classifyOne := func(i int) {
		t.Helper()
		if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: noiseImage(i)}); err != nil {
			t.Fatalf("classify: %v", err)
		}
	}
	classifyOne(1) // warms the model back in: one response-cache miss
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	classifyOne(2) // on the re-registered model: one more
	after := cacheCountersOf(mustSnapshot(t, s))
	if after.respHits < before.respHits || after.exitHits < before.exitHits || after.exitMisses < before.exitMisses ||
		after.encHits < before.encHits || after.encMisses < before.encMisses {
		t.Errorf("a cache counter ran backwards across evict/warm + re-register: %+v → %+v", before, after)
	}
	if after.respMisses != before.respMisses+2 {
		t.Errorf("responseCacheMisses %d → %d, want exactly the two post-cycle misses more", before.respMisses, after.respMisses)
	}
}

// TestEvictReleasesImageMemory: eviction must release the model's image
// memory — interner, views, quantizations — with its replica pool;
// nothing the archive retains (conversion, metrics) may reach it, or
// the heap stays where the traffic left it.
func TestEvictReleasesImageMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("heap accounting, not concurrency: CI's race ×20 repeat (-short) gains nothing from it")
	}
	net, set := testModel(t)
	s := New(Config{})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}
	hot := make([][]float64, 1000)
	for i := range hot {
		hot[i] = noiseImage(i)
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	classify := func(img []float64) ClassifyResult {
		t.Helper()
		res, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img})
		if err != nil {
			t.Fatalf("classify: %v", err)
		}
		res.LatencyMs, res.RequestID, res.Cached = 0, "", false
		return res
	}
	baseline := heap()
	var want ClassifyResult
	for round := 0; round < 4; round++ {
		for _, img := range hot {
			want = classify(img)
		}
	}
	loaded := heap()
	t.Logf("heap MB: baseline %.1f loaded %.1f", baseline, loaded)
	if snap := mustSnapshot(t, s); snap.ResponseCacheHits != 2000 {
		t.Fatalf("responseCacheHits = %d after four rounds of 1000 hot images, want 2000", snap.ResponseCacheHits)
	}
	// One pixel copy and one quantization per hot image (≈13 MB); a
	// private pixel copy per view would make it ≈26 MB.
	if grew := loaded - baseline; grew < 8 || grew > 18 {
		t.Errorf("1000 hot images grew the heap by %.1f MB, want ≈13 (one shared pixel copy + one quantization each)", grew)
	}
	if err := s.Evict("digits"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if evicted := heap(); evicted > baseline+2 {
		t.Errorf("heap %.1f MB before traffic, %.1f MB loaded, %.1f MB after Evict: eviction kept the image memory alive", baseline, loaded, evicted)
	}
	if got := classify(hot[len(hot)-1]); got != want {
		t.Errorf("after the warm: %+v, want the pre-eviction %+v", got, want)
	}
}

// TestResidentBoundLRU: with MaxResidentModels=2, three registered
// models all keep serving — at most two resident at a time, the third
// transparently warming in on demand.
func TestResidentBoundLRU(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{MaxResidentModels: 2, ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	names := []string{"alpha", "beta", "gamma"}
	for _, name := range names {
		if _, err := s.Register(lifecycleModelConfig(name), net, set.Train); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	images := probeImages(2)
	pinned := map[string][]int{}
	for _, name := range names {
		pinned[name] = classifyPreds(t, s, name, images)
	}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			got := classifyPreds(t, s, name, images)
			for i := range got {
				if got[i] != pinned[name][i] {
					t.Fatalf("round %d %s image %d: prediction %d, pinned %d", round, name, i, got[i], pinned[name][i])
				}
			}
			if resident, _, _ := s.lifecycleCounts(); resident > 2 {
				t.Fatalf("round %d: %d resident models, bound is 2", round, resident)
			}
		}
	}
	if got := len(s.Registry().ListAll()); got != 3 {
		t.Errorf("ListAll: %d models, want all 3 (resident + evicted)", got)
	}
	var evictions int64
	for _, snap := range s.snapshotModels() {
		evictions += snap.Evictions
	}
	if evictions == 0 {
		t.Error("no evictions recorded despite the resident bound forcing churn")
	}
}

// TestFairNoStarvationUnderSaturation: with one shared execution slot
// and a saturated hot model, a cold model's requests must still complete
// promptly — the SFQ dispatcher interleaves its batches instead of
// FIFO-draining the hot backlog.
func TestFairNoStarvationUnderSaturation(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{
		MaxBatch: 2, QueueDepth: 128, ResponseCacheSize: -1,
		InjectLatency: 5 * time.Millisecond,
		FairSlots:     1,
		ModelWeights:  map[string]float64{"hot": 1, "cold": 1},
	})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	for _, name := range []string{"hot", "cold"} {
		cfg := lifecycleModelConfig(name)
		cfg.Replicas = 1
		if _, err := s.Register(cfg, net, set.Train); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	for w := 0; w < 4; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Classify(context.Background(), ClassifyRequest{
					Model: "hot", Image: noiseImage(w*10000 + i),
				})
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let the hot backlog build

	const probes = 8
	var worst time.Duration
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		if _, err := s.Classify(context.Background(), ClassifyRequest{
			Model: "cold", Image: noiseImage(90000 + i),
		}); err != nil {
			close(stop)
			bg.Wait()
			t.Fatalf("cold probe %d: %v", i, err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	close(stop)
	bg.Wait()
	// Starvation means waiting out the entire hot backlog (tens of
	// batches × injected latency, unbounded while the flood refills). A
	// fair grant is one slot wait away; 2s is orders of magnitude of
	// headroom for CI noise without tolerating starvation.
	if worst > 2*time.Second {
		t.Errorf("worst cold-probe latency %v under hot saturation — fair isolation failed", worst)
	}
	hot, ok := s.fair.Stats("hot")
	if !ok || hot.Grants == 0 {
		t.Fatalf("hot fair stats = %+v (ok=%v), want grants > 0", hot, ok)
	}
	cold, ok := s.fair.Stats("cold")
	if !ok || cold.Grants == 0 {
		t.Fatalf("cold fair stats = %+v (ok=%v), want grants > 0", cold, ok)
	}
}

// TestConcurrentWarmsResidentBoundNoDeadlock: two evicted models warming
// concurrently under MaxResidentModels=1 must not deadlock. Before the
// warmOp was resolved ahead of bound enforcement, each warm's
// enforceResidentBound picked the other model as victim and remove()
// blocked on the other's still-open warmOp — a permanent cross-warm
// deadlock this watchdog catches.
func TestConcurrentWarmsResidentBoundNoDeadlock(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{MaxResidentModels: 1, ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	for _, name := range []string{"alpha", "beta"} {
		cfg := lifecycleModelConfig(name)
		cfg.Replicas = 1
		if _, err := s.Register(cfg, net, set.Train); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	// Force both out so every round's classifies start from a warm.
	for _, name := range []string{"alpha", "beta"} {
		_ = s.Evict(name) // one may already be evicted by the bound
	}

	// Continuous churn, no barrier between requests: with every request
	// for the non-resident name starting a warm whose bound enforcement
	// evicts the other name, warms for both names are perpetually in
	// flight and overlap constantly — the interleaving the deadlock
	// needs. 30 requests per worker finish in well under a second when
	// warms resolve; a deadlock freezes every worker until the watchdog.
	done := make(chan struct{})
	go func() {
		defer close(done)
		img := probeImages(1)[0]
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				names := []string{"alpha", "beta"}
				for i := 0; i < 30; i++ {
					name := names[(w+i)%2]
					if _, err := s.Classify(context.Background(), ClassifyRequest{
						Model: name, Image: img,
					}); err != nil {
						t.Errorf("worker %d request %d (%s): %v", w, i, name, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent warms under the resident bound deadlocked")
	}
	if resident, _, _ := s.lifecycleCounts(); resident > 1 {
		t.Errorf("%d resident models, bound is 1", resident)
	}
}

// TestWarmCannotClobberConcurrentRegister pins the epoch guard: a warm
// that restored the archived conversion, then lost the race to an
// explicit Register of fresh weights, must abort its install instead of
// atomically replacing the NEW registration with the OLD archive. The
// test reproduces the exact interleaving white-box — restore, then
// register, then the warm's guarded install.
func TestWarmCannotClobberConcurrentRegister(t *testing.T) {
	net, set := testModel(t)
	alt := altTestModel(t)
	s := New(Config{ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register v1: %v", err)
	}
	images := probeImages(10)
	predsV1 := classifyPreds(t, s, "digits", images)
	if _, err := s.Register(lifecycleModelConfig("digits"), alt, set.Train); err != nil {
		t.Fatalf("Register v2: %v", err)
	}
	predsV2 := classifyPreds(t, s, "digits", images)
	var diff []int
	for i := range images {
		if predsV1[i] != predsV2[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) == 0 {
		t.Skip("v1 and v2 agree on every probe image; no stale-weights discriminator")
	}

	// Back to v1 resident, then evict: the archive holds v1.
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register v1 again: %v", err)
	}
	if err := s.Evict("digits"); err != nil {
		t.Fatalf("Evict: %v", err)
	}

	// The warm leader's first half: sample the epoch and restore v1.
	s.mu.Lock()
	epoch := s.epochs["digits"]
	s.mu.Unlock()
	sched, err := s.buildScheduler()
	if err != nil {
		t.Fatalf("buildScheduler: %v", err)
	}
	restored, err := s.reg.Restore("digits")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// A concurrent Register of fresh v2 weights lands in between.
	if _, err := s.Register(lifecycleModelConfig("digits"), alt, set.Train); err != nil {
		t.Fatalf("Register v2 mid-warm: %v", err)
	}

	// The warm's install must now abort, not resurrect v1.
	if _, err := s.installModelAt(restored, sched, epoch, true); !errors.Is(err, errStaleWarm) {
		t.Fatalf("guarded install after concurrent register: err = %v, want errStaleWarm", err)
	}
	for _, i := range diff {
		res, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: images[i]})
		if err != nil {
			t.Fatalf("post-race image %d: %v", i, err)
		}
		if res.Prediction != predsV2[i] {
			t.Fatalf("image %d: prediction %d from the stale archived weights, want %d from the fresh registration",
				i, res.Prediction, predsV2[i])
		}
	}
}

// TestWarmLeaderHonorsContext: the request that claims the singleflight
// warm must still observe its own context — it returns promptly when the
// context is done while the restore completes in the background for
// everyone else.
func TestWarmLeaderHonorsContext(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}
	img := probeImages(1)[0]
	if err := s.Evict("digits"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: img}); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader with cancelled context: err = %v, want context.Canceled", err)
	}
	// The detached warm still completes and the model serves again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resident, _, warming := s.lifecycleCounts(); resident == 1 && warming == 0 {
			break
		}
		if time.Now().After(deadline) {
			resident, evicted, warming := s.lifecycleCounts()
			t.Fatalf("background warm never completed: resident=%d evicted=%d warming=%d", resident, evicted, warming)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img}); err != nil {
		t.Fatalf("classify after background warm: %v", err)
	}
}

// TestUnregisterHTTPStatus: DELETE /v1/models/{name} distinguishes
// unknown names (404) from the server refusing (503 after shutdown) —
// before the ErrUnknownModel sentinel every failure read as 404.
func TestUnregisterHTTPStatus(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	do := func(name string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/models/"+name, nil))
		return rec.Code
	}
	if code := do("nope"); code != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", code)
	}
	if code := do("digits"); code != http.StatusOK {
		t.Errorf("known model: status %d, want 200", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := do("digits"); code != http.StatusServiceUnavailable {
		t.Errorf("unregister after shutdown: status %d, want 503", code)
	}
}

// TestIdleEvictor: a model idle past EvictIdle is evicted in the
// background and warms back in on the next request.
func TestIdleEvictor(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{EvictIdle: 80 * time.Millisecond, ResponseCacheSize: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}
	img := probeImages(1)[0]
	if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img}); err != nil {
		t.Fatalf("classify: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resident, evicted, _ := s.lifecycleCounts(); resident == 0 && evicted == 1 {
			break
		}
		if time.Now().After(deadline) {
			resident, evicted, _ := s.lifecycleCounts()
			t.Fatalf("idle evictor never fired: resident=%d evicted=%d", resident, evicted)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img}); err != nil {
		t.Fatalf("post-evict classify (warm): %v", err)
	}
	if snap := mustSnapshot(t, s); snap.Warms == 0 {
		t.Error("warms = 0 after the idle evictor cycled the model")
	}
}
