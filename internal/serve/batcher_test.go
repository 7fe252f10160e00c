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

// TestBatcherBacklogStaysInQueue pins where backlog waits while every
// replica is busy: in the admission queue, where the projected-wait
// shed, Retry-After and the autoscaler read it — also when the pool has
// headroom to grow. The one live replica of a 1..3 pool is held by a
// running batch and the dispatcher holds the next formed batch; every
// later request must still be queued.
func TestBatcherBacklogStaysInQueue(t *testing.T) {
	pool, image := testPoolMax(t, 1, 3)
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	b := NewBatcher(pool, BatcherConfig{
		// One request a batch, drain-only: a batch waiting for a replica
		// collects nothing, so the count below is exact.
		MaxBatch: 1, QueueDepth: 16,
	})
	b.injectFault = func() error { // holds the replica until released
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
		return nil
	}
	defer b.Close()
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	const n = 10
	errs := make(chan error, n)
	submit := func(i int) {
		img := append([]float64(nil), image...)
		img[0] = float64(i+1) / (n + 1)
		go func() {
			_, err := b.Submit(context.Background(), img, ExitPolicy{MaxSteps: 8})
			errs <- err
		}()
	}
	submit(0)
	<-entered
	for i := 1; i < n; i++ {
		submit(i)
	}
	// One request runs and one is formed and waiting: the rest are queued.
	for deadline := time.Now().Add(5 * time.Second); b.QueueDepth() != n-2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a dispatcher that would pull more
	if got := b.QueueDepth(); got != n-2 {
		t.Fatalf("QueueDepth = %d with one replica busy, want %d: backlog left the queue", got, n-2)
	}
	if got := pool.InFlight(); got != 1 {
		t.Fatalf("pool InFlight = %d, want 1", got)
	}
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
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

// TestBatcherDedupesIdenticalRequests checks identical requests in one
// microbatch: several concurrent identical (image, policy) requests —
// plus a distinct image and the same image under another policy — each
// simulate on their own and get exactly the outcome a lone Classify
// gives, the twin under the other policy and the distinct image are not
// confused with them, and the retired dedupedRequests stays zero.
func TestBatcherDedupesIdenticalRequests(t *testing.T) {
	// The batcher runs every microbatch on the sequential route.
	t.Run("sequential", func(t *testing.T) {
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

		b := NewBatcher(pool, BatcherConfig{
			Metrics: metrics, MaxBatch: 8, MaxDelay: 300 * time.Millisecond,
		})
		defer b.Close()
		type sub struct {
			image  []float64
			policy ExitPolicy
			want   Outcome
		}
		subs := []sub{
			{image, policyA, wantSame},
			{image, policyA, wantSame},                            // identical
			{append([]float64(nil), image...), policyA, wantSame}, // identical pixels, distinct backing array
			{distinct, policyA, wantDistinct},
			{image, policyB, wantB}, // same image, different policy
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
				if out != s.want {
					t.Errorf("request %d: got %+v, want %+v", i, out, s.want)
				}
			}(i, s)
		}
		wg.Wait()
		if s := metrics.Snapshot(); s.DedupedRequests != 0 {
			t.Errorf("dedupedRequests = %d, want 0 (retired): %+v", s.DedupedRequests, s)
		}
	})
}
