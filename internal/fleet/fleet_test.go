package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// ---- shared tiny model (trained once per binary) ----

var (
	testOnce sync.Once
	testNet  *dnn.Network
	testSet  *dataset.Set
)

func testModel(t *testing.T) (*dnn.Network, *dataset.Set) {
	t.Helper()
	testOnce.Do(func() {
		set := dataset.SynthDigits(dataset.DigitsConfig{
			TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
		})
		net, err := dnn.Build(dnn.MLP(1, 28, 28, []int{32}, 10), mathx.NewRNG(7))
		if err != nil {
			panic(err)
		}
		dnn.Train(net, set, dnn.NewAdam(0.01), dnn.TrainConfig{
			Epochs: 8, BatchSize: 32, Seed: 5,
		})
		testNet, testSet = net, set
	})
	return testNet, testSet
}

const testSteps = 96

// newShardServer builds one shard's serve.Server with the shared model
// registered. Every shard gets the identical configuration, so results
// are shard-independent (the invariance the fleet relies on).
func newShardServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	net, set := testModel(t)
	s := serve.New(cfg)
	_, err := s.Register(serve.ModelConfig{
		Name:        "digits",
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		Replicas:    1,
		MaxReplicas: 2,
		NormSamples: 32,
	}, net, set.Train)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return s
}

// inprocFactory builds real in-process shard workers.
func inprocFactory(t *testing.T, cfg serve.Config) WorkerFactory {
	return func(shard int) (Worker, error) {
		return NewInprocWorker(newShardServer(t, cfg)), nil
	}
}

// testImage returns a deterministic image for an index.
func testImage(idx int) []float64 {
	rng := mathx.NewRNG(uint64(idx)*2654435761 + 17)
	img := make([]float64, 28*28)
	for i := range img {
		img[i] = rng.Float64()
	}
	return img
}

// imageOwnedBy finds a test image whose hash lands on the given shard.
func imageOwnedBy(ring *Ring, shard int) []float64 {
	for i := 0; ; i++ {
		img := testImage(i)
		if ring.Owner(coding.HashImage(img)) == shard {
			return img
		}
	}
}

// ---- fake workers (routing-plane tests without simulation cost) ----

// fakeWorker counts what lands on it and fails on demand.
type fakeWorker struct {
	shard int
	shed  atomic.Bool   // every Classify sheds (a serve.ShedError)
	down  atomic.Bool   // every Classify fails dead (ErrWorkerDown)
	retry time.Duration // the sheds' Retry-After

	mu     sync.Mutex
	hashes []uint64 // image hashes answered, in arrival order
}

func (w *fakeWorker) Classify(_ context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	if w.down.Load() {
		return serve.ClassifyResult{}, ErrWorkerDown
	}
	if w.shed.Load() {
		return serve.ClassifyResult{}, &serve.ShedError{RetryAfter: w.retry}
	}
	h := coding.HashImage(req.Image)
	w.mu.Lock()
	w.hashes = append(w.hashes, h)
	w.mu.Unlock()
	return serve.ClassifyResult{Model: req.Model, Prediction: int(h % 10)}, nil
}

func (w *fakeWorker) served() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.hashes...)
}

func (w *fakeWorker) Stats() (serve.ShardStats, error) {
	if w.down.Load() {
		return serve.ShardStats{}, ErrWorkerDown
	}
	return serve.ShardStats{}, nil
}
func (w *fakeWorker) Models() ([]serve.Info, error) {
	return []serve.Info{{Name: "digits"}}, nil
}
func (w *fakeWorker) Unregister(string, bool) error { return nil }
func (w *fakeWorker) Healthy() bool                 { return !w.down.Load() }
func (w *fakeWorker) Close() error                  { return nil }

// fakeFleet builds a fleet over fake workers with supervision disabled
// (tests flip worker state directly and check routing, not repair).
func fakeFleet(t *testing.T, shards int, cfg Config) (*Fleet, []*fakeWorker) {
	t.Helper()
	fakes := make([]*fakeWorker, shards)
	cfg.Shards = shards
	cfg.HealthInterval = -1
	f, err := New(cfg, func(s int) (Worker, error) {
		fakes[s] = &fakeWorker{shard: s, retry: time.Duration(s+1) * time.Second}
		return fakes[s], nil
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f, fakes
}

// ---- tests ----

// TestFleetRoutingAffinity pins the front tier's core property: every
// request lands on its image hash's ring owner, and replays of the same
// image land on the same shard (per-shard caches stay hot).
func TestFleetRoutingAffinity(t *testing.T) {
	f, fakes := fakeFleet(t, 4, Config{})
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		img := testImage(i)
		if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); err != nil {
			t.Fatalf("Classify(%d): %v", i, err)
		}
		owner := f.Owner(coding.HashImage(img))
		got := fakes[owner].served()
		if len(got) == 0 || got[len(got)-1] != coding.HashImage(img) {
			t.Fatalf("image %d: owner shard %d did not serve it", i, owner)
		}
	}
	// Replay: same image, same shard, no drift.
	img := testImage(3)
	owner := f.Owner(coding.HashImage(img))
	before := len(fakes[owner].served())
	for i := 0; i < 5; i++ {
		if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	if got := len(fakes[owner].served()) - before; got != 5 {
		t.Errorf("replays on owner = %d, want 5", got)
	}
	snap := f.Snapshot()
	var dispatched int64
	for _, sc := range snap.PerShard {
		dispatched += sc.Dispatched
	}
	if dispatched != n+5 {
		t.Errorf("total dispatched = %d, want %d", dispatched, n+5)
	}
}

// TestFleetFallback covers bounded-load fallback: an overloaded owner
// hands the request to the next shard clockwise, the hop budget caps how
// far it travels, and a FallbackHops<0 config pins requests to their
// owner.
func TestFleetFallback(t *testing.T) {
	f, fakes := fakeFleet(t, 3, Config{FallbackHops: 1})
	ctx := context.Background()
	img := imageOwnedBy(f.ring, 0)
	hash := coding.HashImage(img)
	next := f.ring.Sequence(hash, 3)[1]

	fakes[0].shed.Store(true)
	res, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
	if err != nil {
		t.Fatalf("fallback Classify: %v", err)
	}
	if res.Prediction != int(hash%10) {
		t.Errorf("fallback returned a different answer: %d", res.Prediction)
	}
	if got := fakes[next].served(); len(got) != 1 || got[0] != hash {
		t.Errorf("fallback shard %d served %v, want [%d]", next, got, hash)
	}
	snap := f.Snapshot()
	if snap.PerShard[0].Sheds != 1 {
		t.Errorf("owner sheds = %d, want 1", snap.PerShard[0].Sheds)
	}
	if snap.PerShard[next].Fallbacks != 1 {
		t.Errorf("fallback counter = %d, want 1", snap.PerShard[next].Fallbacks)
	}

	// Both owner and fallback overloaded: the hop budget (1) is spent, the
	// request sheds with the owner's error even though shard 3 is idle.
	fakes[next].shed.Store(true)
	if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("exhausted hops: got %v, want ErrOverloaded", err)
	}

	_ = f.Close()

	// Pinned mode: no fallback at all.
	fp, pfakes := fakeFleet(t, 3, Config{FallbackHops: -1})
	pimg := imageOwnedBy(fp.ring, 0)
	pfakes[0].shed.Store(true)
	if _, err := fp.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: pimg}); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("pinned: got %v, want ErrOverloaded", err)
	}
	for s := 1; s < 3; s++ {
		if len(pfakes[s].served()) != 0 {
			t.Errorf("pinned request leaked to shard %d", s)
		}
	}
}

// TestFleetDeadSkip pins the dead-shard rule: a down owner is skipped
// WITHOUT consuming the fallback hop budget, so even a zero-hop config
// still reaches the next live shard.
func TestFleetDeadSkip(t *testing.T) {
	f, fakes := fakeFleet(t, 3, Config{FallbackHops: -1}) // zero hops
	ctx := context.Background()
	img := imageOwnedBy(f.ring, 1)
	fakes[1].down.Store(true)
	res, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
	if err != nil {
		t.Fatalf("dead-skip Classify: %v", err)
	}
	hash := coding.HashImage(img)
	if res.Prediction != int(hash%10) {
		t.Errorf("dead-skip answer = %d, want %d", res.Prediction, int(hash%10))
	}
	snap := f.Snapshot()
	if snap.PerShard[1].DeadSkips == 0 {
		t.Error("dead owner recorded no deadSkips")
	}
	if snap.LiveShards != 2 {
		t.Errorf("LiveShards = %d, want 2", snap.LiveShards)
	}
	// All shards down: a clean ErrWorkerDown, not a hang.
	fakes[0].down.Store(true)
	fakes[2].down.Store(true)
	if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("all-dead: got %v, want ErrWorkerDown", err)
	}
}

// TestFleetRetryAfterOwner: a fleet 429's Retry-After is the OWNING
// shard's projection, carried by its shed (a retry re-hashes to the same
// owner), not a fleet average; only a dead owner defers to the next shard
// in the request's ring sequence. Over a process worker the projection
// arrives in the shed reply frame, with no further request to the worker.
func TestFleetRetryAfterOwner(t *testing.T) {
	f, fakes := fakeFleet(t, 4, Config{})
	h := NewFront(f).Handler()
	img := imageOwnedBy(f.ring, 2)
	classify := func(h http.Handler, model string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(serve.ClassifyRequest{Model: model, Image: img})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		return rec
	}
	for _, w := range fakes {
		w.shed.Store(true)
	}
	// Each fake's sheds carry (shard+1) seconds; the owner's voice must
	// win over the fallback shard's.
	if rec := classify(h, "digits"); rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "3" {
		t.Errorf("front answered %d, Retry-After %q; want 429, \"3\" (owner shard 2)",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	// Dead owner (dead in the FLEET's view — the routing plane keys off
	// its own eviction state, not the worker's internals): the next shard
	// in the ring sequence answers.
	fakes[2].down.Store(true)
	f.markDead(2)
	next := f.ring.Sequence(coding.HashImage(img), 4)[1]
	if rec, want := classify(h, "digits"), strconv.Itoa(next+1); rec.Code != http.StatusTooManyRequests ||
		rec.Header().Get("Retry-After") != want {
		t.Errorf("dead owner: front answered %d, Retry-After %q; want 429, %q (shard %d)",
			rec.Code, rec.Header().Get("Retry-After"), want, next)
	}
	// Everything dead: a 503, which carries no Retry-After.
	for s, w := range fakes {
		w.down.Store(true)
		f.markDead(s)
	}
	if rec := classify(h, "digits"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "" {
		t.Errorf("all dead: front answered %d, Retry-After %q; want 503 and none",
			rec.Code, rec.Header().Get("Retry-After"))
	}

	// A process worker: its shed frame says 7 s, and the front asks the
	// worker nothing else.
	var admin atomic.Int64
	mux := http.NewServeMux()
	mux.Handle("GET "+serve.StreamPath, serve.NewStreamServer(newFakeClassifier()))
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		admin.Add(1)
		http.NotFound(w, nil)
	})
	pw := stubProcWorker(t, mux)
	pf, err := New(Config{Shards: 1, HealthInterval: -1}, func(int) (Worker, error) { return pw, nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = pf.Close() })
	if rec := classify(NewFront(pf).Handler(), "shed"); rec.Code != http.StatusTooManyRequests ||
		rec.Header().Get("Retry-After") != "7" {
		t.Errorf("proc worker: front answered %d, Retry-After %q; want 429, \"7\"",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if n := admin.Load(); n != 0 {
		t.Errorf("the front sent the worker %d requests besides the classify stream", n)
	}
}

// TestFleetSingleShardInvariance is the acceptance criterion: a 1-shard
// fleet must produce exactly the outcomes the bare server produces —
// sharding is a scale-out plane, never a semantics change.
func TestFleetSingleShardInvariance(t *testing.T) {
	cfg := serve.Config{ResponseCacheSize: -1} // no caching: every request simulates
	direct := newShardServer(t, cfg)
	t.Cleanup(func() { _ = direct.Shutdown(context.Background()) })
	f, err := New(Config{Shards: 1, HealthInterval: -1}, inprocFactory(t, cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })

	ctx := context.Background()
	_, set := testModel(t)
	for i, sample := range set.Test[:12] {
		req := serve.ClassifyRequest{Model: "digits", Image: sample.Image}
		want, err := direct.Classify(ctx, req)
		if err != nil {
			t.Fatalf("direct Classify(%d): %v", i, err)
		}
		got, err := f.Classify(ctx, req)
		if err != nil {
			t.Fatalf("fleet Classify(%d): %v", i, err)
		}
		// Identical up to wall-clock noise: normalize the non-semantic
		// fields, then require exact equality on everything else.
		got.LatencyMs, want.LatencyMs = 0, 0
		got.RequestID, want.RequestID = "", ""
		if got != want {
			t.Errorf("image %d: fleet %+v != direct %+v", i, got, want)
		}
	}
}

// TestFleetFallbackCacheDiscipline routes real traffic through a mixed
// fleet — a permanently-shedding fake owner in front of a real serving
// shard — and checks the pixel-verified response cache on the fallback
// shard behaves exactly as it would for owned traffic: first arrival
// simulates, the replay hits the cache, and both return the same answer.
func TestFleetFallbackCacheDiscipline(t *testing.T) {
	real := NewInprocWorker(newShardServer(t, serve.Config{ResponseCacheSize: 64}))
	shedder := &fakeWorker{retry: time.Second}
	shedder.shed.Store(true)
	workers := []Worker{shedder, real}
	f, err := New(Config{Shards: 2, FallbackHops: 1, HealthInterval: -1},
		func(s int) (Worker, error) { return workers[s], nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })

	ctx := context.Background()
	_, set := testModel(t)
	img := imageOwnedBy(f.ring, 0)
	// Give the fallback shard a real image the model can run: any owned
	// by shard 0 works, but use a dataset image for a meaningful answer.
	for _, s := range set.Test {
		if f.ring.Owner(coding.HashImage(s.Image)) == 0 {
			img = s.Image
			break
		}
	}
	first, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
	if err != nil {
		t.Fatalf("first Classify: %v", err)
	}
	if first.Cached {
		t.Fatal("first arrival must simulate, not hit the cache")
	}
	// The response cache promotes a key on its SECOND sighting (unique
	// traffic never allocates entries), so the second request simulates
	// and stores; the third is the first eligible hit. That promotion
	// gate holding on fallback-served traffic is exactly the discipline
	// under test.
	second, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
	if err != nil {
		t.Fatalf("second Classify: %v", err)
	}
	if second.Cached {
		t.Error("second sighting should simulate (promotion, not a hit)")
	}
	replay, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
	if err != nil {
		t.Fatalf("replay Classify: %v", err)
	}
	if !replay.Cached {
		t.Error("replay should hit the fallback shard's response cache")
	}
	if replay.Prediction != first.Prediction || replay.Steps != first.Steps {
		t.Errorf("cached replay diverged: %+v vs %+v", replay, first)
	}
	st, err := real.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if hits := st.Models["digits"].Counters.ResponseCacheHits; hits != 1 {
		t.Errorf("fallback shard cache hits = %d, want 1", hits)
	}
}

// TestFleetSuperviseRespawn is satellite (d): kill a worker mid-load and
// assert (1) not one request on any shard is dropped — in-flight and
// subsequent requests for the dead shard re-route to the survivor until
// (2) the supervisor respawns the shard and traffic returns. Run under
// -race this also pins the supervisor/request-path locking.
func TestFleetSuperviseRespawn(t *testing.T) {
	cfg := serve.Config{ResponseCacheSize: -1}
	f, err := New(Config{
		Shards:         2,
		HealthInterval: 20 * time.Millisecond,
	}, inprocFactory(t, cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })

	_, set := testModel(t)
	ctx := context.Background()
	var failures atomic.Int64
	var completed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				img := set.Test[(g*7+i)%len(set.Test)].Image
				if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); err != nil {
					failures.Add(1)
					t.Errorf("classify during kill: %v", err)
					return
				}
				completed.Add(1)
			}
		}(g)
	}
	// Let load establish, then kill shard 0 out from under it.
	time.Sleep(50 * time.Millisecond)
	w0, ok := f.Worker(0).(*InprocWorker)
	if !ok {
		t.Fatal("shard 0 worker is not in-proc")
	}
	w0.Kill()
	// Wait for the supervisor to notice and respawn.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := f.Snapshot()
		if snap.PerShard[0].Respawns >= 1 && snap.LiveShards == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never respawned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Traffic keeps flowing on the respawned fleet.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests dropped across the kill/respawn", failures.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed")
	}
	// The respawned worker is a different instance and serves directly.
	w0b, ok := f.Worker(0).(*InprocWorker)
	if !ok || w0b == w0 {
		t.Fatal("shard 0 was not rebuilt")
	}
	img := imageOwnedBy(f.ring, 0)
	if _, err := w0b.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); err != nil {
		t.Fatalf("respawned worker Classify: %v", err)
	}
}

// slowCloseWorker is a fake worker whose Close takes a while, like a
// process worker draining its child's last replies.
type slowCloseWorker struct {
	*fakeWorker
	closed atomic.Bool
}

func (w *slowCloseWorker) Close() error {
	time.Sleep(100 * time.Millisecond)
	w.closed.Store(true)
	return nil
}

// TestFleetCloseWaitsForReplacedWorkers pins that a worker the
// supervisor replaced has finished closing by the time Fleet.Close
// returns: for a process worker, no child outlives the fleet.
func TestFleetCloseWaitsForReplacedWorkers(t *testing.T) {
	first := &slowCloseWorker{fakeWorker: &fakeWorker{}}
	spawned := 0
	f, err := New(Config{Shards: 1, HealthInterval: 5 * time.Millisecond}, func(int) (Worker, error) {
		if spawned++; spawned == 1 {
			return first, nil
		}
		return &fakeWorker{}, nil
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	first.down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for f.Snapshot().PerShard[0].Respawns < 1 {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never respawned")
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !first.closed.Load() {
		t.Fatal("Fleet.Close returned while the replaced worker was still closing")
	}
}

// TestFleetMetricsMergeAndProm sends mixed traffic through a real
// 2-shard fleet and checks the merged snapshot adds up (per-shard
// requests sum to the fleet total; merged histograms carry every
// observation and fill every digest; each shard's gauges are its own)
// and the Prometheus exposition parses clean with the families the page
// has always had.
func TestFleetMetricsMergeAndProm(t *testing.T) {
	f, err := New(Config{Shards: 2, HealthInterval: -1}, inprocFactory(t, serve.Config{}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := NewFront(f)
	t.Cleanup(func() { _ = front.Shutdown(context.Background()) })

	_, set := testModel(t)
	ctx := context.Background()
	classify := func(i int) {
		t.Helper()
		if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: set.Test[i].Image}); err != nil {
			t.Errorf("Classify(%d): %v", i, err)
		}
	}
	const n = 16
	for i := 0; i < n; i++ {
		classify(i)
	}
	snap := f.Snapshot()
	ms, ok := snap.Models["digits"]
	if !ok {
		t.Fatal("snapshot is missing the model")
	}
	if ms.Counters.Requests != n {
		t.Errorf("merged requests = %d, want %d", ms.Counters.Requests, n)
	}
	var perShard int64
	var waits serve.FormWaits
	var windows [2]float64 // each shard's own live forming window, ms
	for s := 0; s < 2; s++ {
		st, err := f.Worker(s).Stats()
		if err != nil {
			t.Fatalf("shard %d stats: %v", s, err)
		}
		c := st.Models["digits"].Counters
		perShard += c.Requests
		waits.Joined += c.FormWaits.Joined
		waits.Fruitless += c.FormWaits.Fruitless
		waits.Skipped += c.FormWaits.Skipped
		// Lone requests halve a shard's window from the 2 ms MaxDelay to
		// zero; the fleet must report each shard's own.
		windows[s] = c.FormWindowMs
		if c.FormWindowMs < 0 || c.FormWindowMs > 2 {
			t.Errorf("shard %d forming window = %v ms, want within [0, 2]", s, c.FormWindowMs)
		}
		if got := ms.PerShard[strconv.Itoa(s)].FormWindowMs; got != c.FormWindowMs {
			t.Errorf("perShard[%d].formWindowMs = %v, want the shard's own %v", s, got, c.FormWindowMs)
		}
	}
	if perShard != n {
		t.Errorf("per-shard requests sum = %d, want %d", perShard, n)
	}
	// Sixteen lone requests each left as a partial batch, after a timed
	// wait or — once their shard's window was zero — without one; the
	// merge adds the shards' forming counters.
	if got := ms.Counters.FormWaits; got != waits || got.Joined+got.Fruitless+got.Skipped != n {
		t.Errorf("merged forming waits = %+v, want the shards' sum %+v covering %d batches", got, waits, n)
	}
	total, ok := ms.Stages["total"]
	if !ok {
		t.Fatal("merged stages missing 'total'")
	}
	if total.Count != n || ms.Counters.P50Ms != total.P50 {
		t.Errorf("merged total stage = %+v, summary p50 %v; want %d observations and the same estimate", total, ms.Counters.P50Ms, n)
	}
	if len(ms.PerShard) != 2 {
		t.Errorf("per-shard gauges = %d entries, want 2", len(ms.PerShard))
	}

	// The exposition endpoint must emit parseable 0.0.4 text with the
	// fleet families present.
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()
	scrape := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics/prom")
		if err != nil {
			t.Fatalf("GET /metrics/prom: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if samples, err := obs.ValidatePromText(bytes.NewReader(body)); err != nil || samples == 0 {
			t.Fatalf("prom exposition: %d samples, err %v", samples, err)
		}
		return string(body)
	}
	text := scrape()
	for _, want := range []string{
		"burstsnn_fleet_shards",
		"burstsnn_fleet_dispatched_total",
		`burstsnn_fleet_requests_total{model="digits"} 16`,
		`burstsnn_fleet_errors_total{model="digits",kind="shed"} 0`,
		`burstsnn_fleet_stage_duration_seconds_count{model="digits",stage="total"} 16`,
		`burstsnn_fleet_form_waits_total{model="digits",outcome="fruitless"}`,
		`burstsnn_fleet_form_waits_total{model="digits",outcome="skipped"}`,
		`burstsnn_fleet_form_window_seconds{model="digits",shard="0"} ` + strconv.FormatFloat(windows[0]/1e3, 'g', -1, 64) + "\n",
		`burstsnn_fleet_form_window_seconds{model="digits",shard="1"} ` + strconv.FormatFloat(windows[1]/1e3, 'g', -1, 64) + "\n",
		`burstsnn_fleet_retry_after_seconds{model="digits",shard="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Every family the page had before the metric table drove it must
	// still be there with its type and labels (testdata/… lists them, with
	// the deliberate edits it notes), and every per-model family of a single
	// server must be there under the fleet prefix.
	have := map[string]bool{}
	for _, fam := range obs.PromFamilies(text) {
		have[fam] = true
	}
	requireFamilies := func(path string, rewrite func(string) string) {
		t.Helper()
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if line = rewrite(line); line != "" && !strings.HasPrefix(line, "#") && !have[line] {
				t.Errorf("fleet page lacks family %q (from %s)", line, path)
			}
		}
	}
	requireFamilies("testdata/prom_families.golden", func(l string) string { return l })
	requireFamilies("../serve/testdata/prom_families.golden", func(l string) string {
		name, rest, _ := strings.Cut(l, " ")
		if !strings.Contains(rest, "model") {
			return "" // server-wide families
		}
		if strings.HasPrefix(rest, "gauge model") {
			rest = strings.Replace(rest, "gauge model", "gauge model,shard", 1)
		}
		return strings.Replace(name, "burstsnn_", "burstsnn_fleet_", 1) + " " + rest
	})
}

// TestFleetShutdownGoroutineBaseline builds a full fleet (supervision
// on, each shard's model registered with autoscale headroom), serves
// traffic, shuts down, and requires the goroutine count to return to its
// pre-fleet baseline — no leaked supervisor, server housekeeping,
// batcher, or worker goroutines. Meaningful under -race.
func TestFleetShutdownGoroutineBaseline(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	f, err := New(Config{
		Shards:         2,
		HealthInterval: 25 * time.Millisecond,
	}, inprocFactory(t, serve.Config{}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, set := testModel(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		img := set.Test[i%len(set.Test)].Image
		if _, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img}); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after Close\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFleetFrontHTTP exercises the whole HTTP face end to end: classify,
// models, healthz (degraded on a dead shard), and the 503 path when the
// fleet has nothing live.
func TestFleetFrontHTTP(t *testing.T) {
	fakes := make([]*fakeWorker, 2)
	f, err := New(Config{Shards: 2, HealthInterval: -1}, func(s int) (Worker, error) {
		fakes[s] = &fakeWorker{shard: s, retry: 2 * time.Second}
		return fakes[s], nil
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := NewFront(f)
	t.Cleanup(func() { _ = front.Shutdown(context.Background()) })
	srv := httptest.NewServer(front.Handler())
	defer srv.Close()

	img := testImage(1)
	body := func() *strings.Reader {
		b, _ := json.Marshal(serve.ClassifyRequest{Model: "digits", Image: img})
		return strings.NewReader(string(b))
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/classify", "application/json", body())
	if err != nil {
		t.Fatalf("POST /v1/classify: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("classify status = %d", resp.StatusCode)
	}

	// Every shard shedding: 429 with the owner's Retry-After.
	for _, w := range fakes {
		w.shed.Store(true)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/classify", "application/json", body())
	if err != nil {
		t.Fatalf("POST shed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	for _, w := range fakes {
		w.shed.Store(false)
	}

	// One dead shard: healthz reports degraded.
	fakes[0].down.Store(true)
	_, _ = f.Classify(context.Background(), serve.ClassifyRequest{Model: "digits", Image: imageOwnedBy(f.ring, 0)})
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hz struct {
		Status     string `json:"status"`
		LiveShards int    `json:"liveShards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "degraded" || hz.LiveShards != 1 {
		t.Errorf("healthz = %+v, want degraded/1", hz)
	}

	// Everything dead: classify answers 503.
	fakes[1].down.Store(true)
	fmtDead := func() int {
		resp, err := srv.Client().Post(srv.URL+"/v1/classify", "application/json", body())
		if err != nil {
			t.Fatalf("POST all-dead: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := fmtDead(); code != 503 {
		t.Fatalf("all-dead status = %d, want 503", code)
	}
}
