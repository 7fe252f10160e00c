package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
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
	if ms.PoolSize != 4 || ms.PoolMax != 4 {
		t.Fatalf("PoolSize/PoolMax = %d/%d, want 4/4", ms.PoolSize, ms.PoolMax)
	}
	if ms.RetryAfterSec < 1 {
		t.Fatalf("RetryAfterSec = %v, want >= 1", ms.RetryAfterSec)
	}
}

// FuzzPoolResize: POST /v1/pool, the one model-admin JSON body, never
// panics and answers only 200, 400 or 404; a 200 echoes a replica count
// the pool can actually hold, [1, Max], and answers a body that is one
// JSON value — trailing bytes after the object are a 400.
func FuzzPoolResize(f *testing.F) {
	f.Add([]byte(`{"model":"digits","replicas":2}`))
	f.Add([]byte(`{"model":"digits","replicas":-7}`))
	f.Add([]byte(`{"model":"digits","replicas":9223372036854775807}`))
	f.Add([]byte(`{"model":"nope","replicas":2}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"model":"digits","replicas":2} {"model":"digits"}`))
	f.Add([]byte(`{"model":"digits","replicas":2,"pad":"` + strings.Repeat("x", 1<<16) + `"}`))
	f.Add([]byte(`{"model":"digits","replicas":2}xyz`))

	net, set := testModel(f)
	s := New(Config{})
	defer s.Shutdown(context.Background())
	m, err := s.Register(ModelConfig{
		Name:        "digits",
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		Replicas:    1,
		MaxReplicas: 3,
		NormSamples: 16,
	}, net, set.Train)
	if err != nil {
		f.Fatalf("Register: %v", err)
	}
	h, poolMax := s.Handler(), m.Pool().Max()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/pool", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(body) {
				t.Fatalf("200 for %q, which is not one JSON value", body)
			}
			var reply struct{ Replicas int }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 with an unreadable reply %q: %v", rec.Body, err)
			}
			if reply.Replicas < 1 || reply.Replicas > poolMax {
				t.Fatalf("200 echoes %d replicas, outside [1, %d]", reply.Replicas, poolMax)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
