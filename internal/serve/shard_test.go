package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPoolMax builds a resizable pool over the shared test model.
func testPoolMax(t *testing.T, size, max int) (*Pool, []float64) {
	t.Helper()
	pool, image := testPool(t, size)
	if size == max {
		return pool, image
	}
	// Rebuild with headroom from the same proto.
	pm, err := NewPoolMax(pool.proto, size, max)
	if err != nil {
		t.Fatalf("NewPoolMax: %v", err)
	}
	return pm, image
}

func TestPoolResize(t *testing.T) {
	pool, _ := testPoolMax(t, 1, 3)
	if pool.Size() != 1 || pool.Max() != 3 {
		t.Fatalf("Size/Max = %d/%d, want 1/3", pool.Size(), pool.Max())
	}
	if n, err := pool.Resize(3); err != nil || n != 3 {
		t.Fatalf("Resize(3) = %d, %v", n, err)
	}
	ctx := context.Background()
	reps := make([]*Replica, 3)
	for i := range reps {
		var err error
		if reps[i], err = pool.Get(ctx); err != nil {
			t.Fatalf("Get after grow: %v", err)
		}
	}
	if got := pool.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	// Shrink while every replica is checked out: the surplus must drain
	// out through Put, leaving one idle replica.
	if n, err := pool.Resize(1); err != nil || n != 1 {
		t.Fatalf("Resize(1) = %d, %v", n, err)
	}
	for _, rep := range reps {
		pool.Put(rep)
	}
	if got := pool.InFlight(); got != 0 {
		t.Fatalf("InFlight after shrink drain = %d, want 0", got)
	}
	timeout, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if rep, err := pool.Get(timeout); err != nil {
		t.Fatalf("Get after shrink: %v", err)
	} else if _, err := pool.Get(timeout); err == nil {
		t.Fatal("second Get succeeded on a pool shrunk to 1")
	} else {
		pool.Put(rep)
	}
	// Clamping: beyond Max and below 1.
	if n, _ := pool.Resize(100); n != 3 {
		t.Fatalf("Resize(100) clamped to %d, want 3", n)
	}
	if n, _ := pool.Resize(-5); n != 1 {
		t.Fatalf("Resize(-5) clamped to %d, want 1", n)
	}
}

// TestPoolResizeUnderLoad grows and shrinks the pool while concurrent
// checkouts hammer it; run with -race this pins the Resize/Get/Put
// locking.
func TestPoolResizeUnderLoad(t *testing.T) {
	pool, _ := testPoolMax(t, 1, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := pool.Get(context.Background())
				if err != nil {
					return
				}
				pool.Put(rep)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := pool.Resize(1 + i%4); err != nil {
			t.Errorf("Resize: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := pool.Resize(pool.Max()); err != nil {
		t.Fatalf("final Resize: %v", err)
	}
	// Every replica must be accounted for: Max checkouts succeed.
	for i := 0; i < pool.Max(); i++ {
		if _, err := pool.Get(context.Background()); err != nil {
			t.Fatalf("Get %d after churn: %v", i, err)
		}
	}
}

// TestBatcherPressure pins the always-on queue-pressure EWMA: zero on an
// idle batcher, rising once submissions find the queue occupied. The lone
// replica is held on a gate, not for an injected wall time, so the queue
// is provably occupied when the last submit samples it however slowly
// this test's goroutines get scheduled.
func TestBatcherPressure(t *testing.T) {
	pool, image := testPool(t, 1)
	gate := make(chan struct{})
	b := NewBatcher(pool, BatcherConfig{
		MaxBatch:    1,
		QueueDepth:  4,
		InjectFault: func() error { <-gate; return nil },
	})
	defer b.Close()
	if got := b.Pressure(); got != 0 {
		t.Fatalf("idle Pressure = %v, want 0", got)
	}
	policy := ExitPolicy{MaxSteps: 8}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(gate)
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Submit(context.Background(), image, policy)
		}()
	}
	// One request holds the replica at the gate; of the next two the
	// dispatcher can hold one (a formed batch waiting for the slot), so
	// the other stays queued.
	submit()
	waitFor(t, func() bool { return pool.InFlight() == 1 })
	submit()
	submit()
	waitFor(t, func() bool { return b.QueueDepth() >= 1 })
	submit()
	waitFor(t, func() bool { return b.Pressure() > 0 })
}

// TestConfigQueueDepthDefault pins the GOMAXPROCS-scaled admission-queue
// default (the old fixed 4×MaxBatch bound stays reachable by setting
// QueueDepth explicitly).
func TestConfigQueueDepthDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if want := 4 * 8 * runtime.GOMAXPROCS(0); cfg.QueueDepth != want {
		t.Fatalf("default QueueDepth = %d, want %d", cfg.QueueDepth, want)
	}
	cfg = Config{MaxBatch: 4, QueueDepth: 16}.withDefaults()
	if cfg.QueueDepth != 16 {
		t.Fatalf("explicit QueueDepth = %d, want 16", cfg.QueueDepth)
	}
}

// TestServerShardStats pins the shard-facing scrape: raw stage buckets
// present and consistent with the digested snapshot, plus the pool and
// retry-after fields the fleet tier consumes.
func TestServerShardStats(t *testing.T) {
	s := testServer(t, Config{})
	_, set := testModel(t)
	for i := 0; i < 4; i++ {
		if _, err := s.Classify(context.Background(), ClassifyRequest{
			Model: "digits", Image: set.Test[i].Image,
		}); err != nil {
			t.Fatalf("Classify: %v", err)
		}
	}
	st := s.ShardStats()
	ms, ok := st.Models["digits"]
	if !ok {
		t.Fatalf("ShardStats missing model digits: %+v", st)
	}
	if ms.Counters.Requests != 4 {
		t.Fatalf("Counters.Requests = %d, want 4", ms.Counters.Requests)
	}
	total, ok := ms.Stages["total"]
	if !ok || total.Count == 0 {
		t.Fatalf("total stage snapshot missing or empty: %+v", ms.Stages)
	}
	if ms.Counters.PoolSize != 4 {
		t.Fatalf("Counters.PoolSize = %d, want 4", ms.Counters.PoolSize)
	}
	if ms.RetryAfterSec < 1 {
		t.Fatalf("RetryAfterSec = %v, want >= 1", ms.RetryAfterSec)
	}
}

// TestServerAutoscale: a model registered with headroom (Replicas 1,
// MaxReplicas 3) under sustained queue pressure has its pool widened by
// its own server, then narrowed back to 1 once idle; a model registered
// without headroom, under the same load, is never resized.
func TestServerAutoscale(t *testing.T) {
	net, set := testModel(t)
	s := New(Config{
		ResponseCacheSize: -1,
		MaxBatch:          2,
		QueueDepth:        4,
		InjectLatency:     10 * time.Millisecond,
	})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	scaledCfg, fixedCfg := lifecycleModelConfig("scaled"), lifecycleModelConfig("fixed")
	scaledCfg.Replicas, scaledCfg.MaxReplicas = 1, 3
	scaled, err := s.Register(scaledCfg, net, set.Train)
	if err != nil {
		t.Fatalf("Register scaled: %v", err)
	}
	fixed, err := s.Register(fixedCfg, net, set.Train)
	if err != nil {
		t.Fatalf("Register fixed: %v", err)
	}
	fixedResized := func() bool { return fixed.Pool().Size() != fixedCfg.Replicas }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Unique images from enough closed-loop clients to overflow what the
	// dispatcher absorbs outside the queue, so submits observe fill.
	var seq atomic.Int64
	for g := 0; g < 32; g++ {
		model := []string{"scaled", "fixed"}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				img := noiseImage(int(seq.Add(1)))
				_, _ = s.Classify(context.Background(), ClassifyRequest{Model: model, Image: img})
			}
		}()
	}
	grew := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if fixedResized() {
			break
		}
		if scaled.Pool().Size() > 1 {
			grew = true
			break
		}
	}
	close(stop)
	wg.Wait()
	if !grew {
		t.Fatal("the server never widened the pool under sustained pressure")
	}
	// Idle: pressure decays and the pool narrows back to 1.
	for deadline := time.Now().Add(15 * time.Second); scaled.Pool().Size() != 1; time.Sleep(20 * time.Millisecond) {
		if fixedResized() || time.Now().After(deadline) {
			break
		}
	}
	if n := scaled.Pool().Size(); n != 1 {
		t.Fatalf("the server left the idle pool at %d replicas, want 1", n)
	}
	if fixedResized() {
		t.Fatalf("a pool without headroom was resized to %d", fixed.Pool().Size())
	}
}
