package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
)

// testPool converts the shared test model once and wraps it in a pool.
func testPool(t *testing.T, size int) (*Pool, []float64) {
	t.Helper()
	net, set := testModel(t)
	conv, err := convert.Convert(net, set.Train, convert.Options{
		Input:       coding.DefaultConfig(coding.Phase),
		Hidden:      coding.DefaultConfig(coding.Burst),
		NormSamples: 32,
	})
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	pool, err := NewPool(conv.Net, size)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return pool, set.Test[0].Image
}

func TestPoolCheckout(t *testing.T) {
	pool, _ := testPool(t, 2)
	ctx := context.Background()
	a, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed out the same replica twice")
	}
	// Pool exhausted: Get must respect context cancellation.
	timeout, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := pool.Get(timeout); err == nil {
		t.Fatal("Get on an exhausted pool should fail when ctx expires")
	}
	pool.Put(a)
	c, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("returned replica should be reused")
	}
	pool.Put(b)
	pool.Put(c)
}

// TestReplicasShareWeightsNotState checks the clone contract the pool
// depends on: replicas produce identical results but never alias state.
func TestReplicasShareWeightsNotState(t *testing.T) {
	pool, image := testPool(t, 3)
	ctx := context.Background()
	reps := make([]*Replica, 3)
	for i := range reps {
		var err error
		if reps[i], err = pool.Get(ctx); err != nil {
			t.Fatal(err)
		}
	}
	policy := ExitPolicy{MaxSteps: 48}
	ref := Classify(reps[0].Net, image, policy)
	for i, rep := range reps[1:] {
		got := Classify(rep.Net, image, policy)
		if got != ref {
			t.Errorf("replica %d: outcome %+v differs from %+v", i+1, got, ref)
		}
	}
}

// TestBatcherMaxDelay verifies the flush conditions: MaxDelay bounds an
// adaptive window, so the first lone request waits it out, lone requests
// after four fruitless waits do not wait at all (no timer is armed: the
// fruitless count stops and only the skipped count grows), and a full
// batch never waits. Waits are read off the returned Form span and the
// forming counters, not off the wall clock.
func TestBatcherMaxDelay(t *testing.T) {
	pool, image := testPool(t, 1)
	policy := ExitPolicy{MaxSteps: 16}

	const delay = 50 * time.Millisecond
	metrics := NewMetrics()
	b := NewBatcher(pool, BatcherConfig{Metrics: metrics, MaxBatch: 8, MaxDelay: delay})
	var form time.Duration
	for i := 1; i <= 20; i++ {
		_, st, _, err := b.SubmitTraced(context.Background(), image, policy)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if form = st.Form; i == 1 && form < delay {
			t.Errorf("first lone request formed in %v, before the %v max-delay flush", form, delay)
		}
		// Every request past the fruitless ones is skipped. Checked twice:
		// a timer still armed at a zero window would show as a Fruitless
		// count that moves between the two.
		if i != 10 && i != 20 {
			continue
		}
		want := FormWaits{Fruitless: int64(formHalvings), Skipped: int64(i - formHalvings)}
		if got := metrics.Snapshot().FormWaits; got != want {
			t.Errorf("forming waits over %d lone requests = %+v, want %+v", i, got, want)
		}
	}
	if form > delay/2 {
		t.Errorf("last lone request formed in %v, want well under the %v window", form, delay)
	}
	if got := b.FormWindow(); got != 0 {
		t.Errorf("FormWindow after lone traffic = %v, want 0", got)
	}
	b.Close()

	// A full batch must not wait for the delay: 8 requests with a huge
	// MaxDelay complete as soon as the batch fills (the test would hang
	// otherwise), and the wait they cut short never counts as fruitless.
	metrics = NewMetrics()
	b = NewBatcher(pool, BatcherConfig{Metrics: metrics, MaxBatch: 8, MaxDelay: time.Hour})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), image, policy); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := metrics.Snapshot().FormWaits; got.Fruitless != 0 {
		t.Errorf("forming waits of one full batch = %+v, want none fruitless", got)
	}
	if got := b.FormWindow(); got != time.Hour {
		t.Errorf("FormWindow after a full batch = %v, want the whole %v", got, time.Hour)
	}
	b.Close()
}

func TestBatcherClose(t *testing.T) {
	pool, image := testPool(t, 1)
	b := NewBatcher(pool, BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond})
	if _, err := b.Submit(context.Background(), image, ExitPolicy{MaxSteps: 8}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b.Close()
	if _, err := b.Submit(context.Background(), image, ExitPolicy{MaxSteps: 8}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherCloseUnderLoad is the graceful-shutdown-under-saturation
// contract: Close during overload lets the batch holding the replica
// drain, fails everything still queued with ErrClosed (a 503, not a
// hang), and leaks no goroutines.
func TestBatcherCloseUnderLoad(t *testing.T) {
	pool, image := testPool(t, 1)
	baseline := runtime.NumGoroutine()
	// MaxBatch 1 + injected latency: the first request holds the lone
	// replica long enough that Close provably lands mid-saturation.
	b := NewBatcher(pool, BatcherConfig{
		MaxBatch: 1, QueueDepth: 16, InjectLatency: 200 * time.Millisecond,
	})
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := b.Submit(context.Background(), image, ExitPolicy{MaxSteps: 8})
			errs <- err
		}()
	}
	waitFor(t, func() bool { return pool.InFlight() == 1 })
	b.Close()
	completed, closed := 0, 0
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("Submit during Close returned %v, want success or ErrClosed", err)
		}
	}
	if completed == 0 {
		t.Error("no in-flight request drained through Close")
	}
	if closed == 0 {
		t.Error("no queued request was failed with ErrClosed")
	}
	// goleak-style check: everything the batcher spawned has exited.
	// Small slack for runtime/test-framework goroutines that come and go.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	var sorted []float64
	for i := 1; i <= 100; i++ {
		m.Observe(Outcome{
			Prediction: 1, Steps: 10, HiddenSpikes: 50, EarlyExit: i%2 == 0,
		}, time.Duration(i)*time.Millisecond)
		sorted = append(sorted, float64(i))
	}
	m.ObserveSimError()
	s := m.Snapshot()
	if s.Requests != 100 || s.Errors != 1 {
		t.Errorf("requests/errors = %d/%d", s.Requests, s.Errors)
	}
	if s.MeanSteps != 10 || s.MeanSpikes != 50 {
		t.Errorf("means = %v steps, %v spikes", s.MeanSteps, s.MeanSpikes)
	}
	if s.EarlyExitRate != 0.5 {
		t.Errorf("early-exit rate = %v, want 0.5", s.EarlyExitRate)
	}
	// The percentiles are the total stage's estimates: each inside the √2
	// bucket holding the exact nearest-rank sample.
	for _, c := range []struct{ p, got float64 }{{50, s.P50Ms}, {90, s.P90Ms}, {99, s.P99Ms}} {
		assertInBucketOf(t, c.p, c.got, Percentile(sorted, c.p))
	}
	if total := s.Stages["total"]; total.Count != 100 || math.Abs(total.Mean-50.5) > 1e-9 || total.P50 != s.P50Ms {
		t.Errorf("total stage = %+v, want 100 observations, mean 50.5 ms, p50 %v", total, s.P50Ms)
	}
}

func TestExitPolicyValidate(t *testing.T) {
	cases := []struct {
		p  ExitPolicy
		ok bool
	}{
		{ExitPolicy{MaxSteps: 64}, true},
		{ExitPolicy{MaxSteps: 64, MinSteps: 16, StableWindow: 8, Margin: 0.1}, true},
		{ExitPolicy{}, false},
		{ExitPolicy{MaxSteps: -1}, false},
		{ExitPolicy{MaxSteps: 8, MinSteps: 9}, false},
		{ExitPolicy{MaxSteps: 8, Margin: -0.5}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}
