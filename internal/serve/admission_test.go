package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
)

// TestAdaptiveBatcherOutcomeInvariance is the outcome-invariance
// acceptance check at the batcher level, under each forming mode the
// batcher has: the adaptive window (auto) and drain-only dispatch (off,
// a zero MaxDelay). Mixed early-exit and full-budget traffic, formed into
// microbatches over several rounds, still produces the sequential
// engine's outcomes byte for byte, and so does the response cache that
// learns them. Forming only changes who shares a microbatch.
func TestAdaptiveBatcherOutcomeInvariance(t *testing.T) {
	pool, image := testPool(t, 1)
	images := make([][]float64, 8)
	policies := make([]ExitPolicy, 8)
	for i := range images {
		img := append([]float64(nil), image...)
		img[i*5] = float64(i+1) / 9
		images[i] = img
		if i%2 == 0 {
			policies[i] = ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
		} else {
			policies[i] = ExitPolicy{MaxSteps: 48}
		}
	}
	want := make([]Outcome, len(images))
	func() {
		rep, err := pool.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Put(rep)
		for i := range images {
			want[i] = Classify(rep.Net, images[i], policies[i])
		}
	}()

	for _, mode := range []struct {
		name     string
		maxDelay time.Duration
	}{{"auto", 300 * time.Millisecond}, {"off", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			metrics := NewMetrics()
			b := NewBatcher(pool, BatcherConfig{
				Metrics: metrics, MaxBatch: 8, MaxDelay: mode.maxDelay,
			})
			defer b.Close()

			for round := 0; round < 4; round++ {
				var wg sync.WaitGroup
				for i := range images {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						out, err := b.Submit(context.Background(), images[i], policies[i])
						if err != nil {
							t.Errorf("round %d request %d: %v", round, i, err)
							return
						}
						if out != want[i] {
							t.Errorf("round %d request %d: batched %+v, sequential %+v",
								round, i, out, want[i])
						}
					}(i)
				}
				wg.Wait()
			}

			// Invariance across the response cache: attach it to the warmed
			// batcher and replay one request. The first two replays run the full
			// pipeline (sighting, then promotion); the third is a cache hit and
			// must still report the outcome the pipeline produced — with no
			// pipeline spans, since it never queued or simulated.
			cache := NewResponseCache(0, time.Hour)
			cache.CountInto(&metrics.responseCache)
			b.cache = cache
			for replay := 0; replay < 2; replay++ {
				out, err := b.Submit(context.Background(), images[0], policies[0])
				if err != nil {
					t.Fatalf("replay %d: %v", replay, err)
				}
				if out != want[0] {
					t.Errorf("replay %d: outcome %+v, sequential %+v", replay, out, want[0])
				}
			}
			out, stages, flags, err := b.SubmitTraced(context.Background(), images[0], policies[0])
			if err != nil || !flags.Cached {
				t.Fatalf("replay after promotion: err=%v cached=%v, want cached hit", err, flags.Cached)
			}
			if out != want[0] {
				t.Errorf("cached outcome %+v differs from fresh classification %+v", out, want[0])
			}
			if stages.Simulate != 0 || stages.Queue != 0 {
				t.Errorf("cache hit reported pipeline spans %+v, want none", stages)
			}
			if hits := metrics.Snapshot().ResponseCacheHits; hits == 0 {
				t.Error("response cache recorded no hits after promotion replay")
			}
		})
	}
}

// --- deterministic overload harness (unstarted batcher) ---

// unstartedBatcher builds a Batcher whose dispatcher never runs, so
// admission behavior — queue fill, shedding, dispatch-time expiry — is
// observable deterministically (a live dispatcher would drain the queue
// before the states of interest could be pinned).
func unstartedBatcher(queueDepth int) *Batcher {
	closeCtx, closeCancel := context.WithCancel(context.Background())
	return &Batcher{
		maxBatch:    8,
		queue:       make(chan *batchRequest, queueDepth),
		done:        make(chan struct{}),
		closeCtx:    closeCtx,
		closeCancel: closeCancel,
	}
}

func TestSubmitShedsOnFullQueue(t *testing.T) {
	b := unstartedBatcher(2)
	img := []float64{0.5}
	p := ExitPolicy{MaxSteps: 8}

	// Fill the admission queue: these Submits enqueue immediately and
	// then block waiting for a (never-coming) result.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Submit(context.Background(), img, p)
			results <- err
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 2 })

	// The queue is full: a third Submit must shed immediately with
	// ErrOverloaded — the admission contract is shed-don't-block, so
	// overload becomes a 429 signal instead of client-side timeouts.
	if _, err := b.Submit(context.Background(), img, p); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on a full queue returned %v, want ErrOverloaded", err)
	}
	// The shed request never entered the queue.
	if d := b.QueueDepth(); d != 2 {
		t.Fatalf("QueueDepth = %d after shed Submit, want 2", d)
	}

	// Unblock the two queued requests so their goroutines exit.
	for i := 0; i < 2; i++ {
		req := <-b.queue
		req.done <- batchResult{err: ErrClosed}
		if err := <-results; err != ErrClosed {
			t.Fatalf("drained request returned %v, want ErrClosed", err)
		}
	}
}

func TestSubmitShedsOnProjectedWait(t *testing.T) {
	b := unstartedBatcher(8)
	img := []float64{0.5}
	p := ExitPolicy{MaxSteps: 8}

	// Teach the drain estimator one second per request and park four
	// requests in the queue: projected wait = 4s (pool of 1).
	b.observeDrain(4*time.Second, 4)
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := b.Submit(context.Background(), img, p)
			results <- err
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 4 })
	if w := b.projectedWait(); w < 3*time.Second {
		t.Fatalf("projectedWait = %v with 4 queued at 1s/request, want ~4s", w)
	}

	// A request with 50ms of deadline left cannot possibly be served
	// through a 4s backlog: it must shed now, without a queue slot.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, img, p)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit with doomed deadline returned %v, want ErrOverloaded", err)
	}
	if d := b.QueueDepth(); d != 4 {
		t.Fatalf("QueueDepth = %d after projected-wait shed, want 4", d)
	}
	// Retry-After reflects the projected backlog (floored at 1s), and the
	// shed carries it: a server's 429 header and a stream reply's
	// RetryAfter both read it from the error (Server.ClassifyStatus).
	if ra := b.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", ra)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter != b.RetryAfter() || RetryAfterSeconds(err) != 4 {
		t.Fatalf("shed %#v (Retry-After %d s), want the batcher's 4 s projection", err, RetryAfterSeconds(err))
	}

	for i := 0; i < 4; i++ {
		req := <-b.queue
		req.done <- batchResult{err: ErrClosed}
		if err := <-results; err != ErrClosed {
			t.Fatalf("drained request returned %v, want ErrClosed", err)
		}
	}
}

// TestDispatchShedsExpired proves expired requests are failed at
// dispatch time without joining a batch: the batcher has a nil pool, so
// any attempt to execute would panic in run().
func TestDispatchShedsExpired(t *testing.T) {
	b := unstartedBatcher(4)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]*batchRequest, 3)
	for i := range reqs {
		reqs[i] = &batchRequest{ctx: canceled, done: make(chan batchResult, 1)}
		b.queue <- reqs[i]
	}
	close(b.queue)
	b.dispatch() // synchronous: runs to completion on the closed queue
	<-b.done
	for i, req := range reqs {
		select {
		case res := <-req.done:
			if !errors.Is(res.err, context.Canceled) {
				t.Fatalf("request %d: err = %v, want context.Canceled", i, res.err)
			}
		default:
			t.Fatalf("request %d was never resolved at dispatch", i)
		}
	}
}

// TestDispatchShedsOnClose proves queued requests fail with ErrClosed at
// dispatch once Close has fired, instead of executing (nil pool again:
// execution would panic).
func TestDispatchShedsOnClose(t *testing.T) {
	b := unstartedBatcher(4)
	b.closeCancel() // Close's signal, without Close's queue teardown
	reqs := make([]*batchRequest, 3)
	for i := range reqs {
		reqs[i] = &batchRequest{ctx: context.Background(), done: make(chan batchResult, 1)}
		b.queue <- reqs[i]
	}
	close(b.queue)
	b.dispatch()
	<-b.done
	for i, req := range reqs {
		select {
		case res := <-req.done:
			if !errors.Is(res.err, ErrClosed) {
				t.Fatalf("request %d: err = %v, want ErrClosed", i, res.err)
			}
		default:
			t.Fatalf("request %d was never resolved at dispatch", i)
		}
	}
}

// sequentialBatch builds an unstarted batcher over a one-replica pool
// and lanes distinct requests for it, enqueued now, so a test can call
// run on the batch synchronously and read every lane's result after.
func sequentialBatch(t *testing.T, lanes int) (*Batcher, func() []*batchRequest) {
	t.Helper()
	pool, image := testPool(t, 1)
	b := unstartedBatcher(lanes)
	b.pool = pool
	return b, func() []*batchRequest {
		reqs := make([]*batchRequest, lanes)
		now := time.Now()
		for i := range reqs {
			img := append([]float64(nil), image...)
			img[i*5] = float64(i+1) / 9
			reqs[i] = &batchRequest{
				ctx: context.Background(), image: img, hash: coding.HashImage(img),
				policy: ExitPolicy{MaxSteps: 48}, enqueued: now, done: make(chan batchResult, 1),
			}
		}
		return reqs
	}
}

// TestSequentialBatchQueueSpanCoversBatchmates pins where a sequential
// lane's wait behind its batchmates is accounted: lane i waits out i
// simulations, and that wait belongs to its queue span — so every lane's
// stage sum (queue + encode + simulate + readout; form lies inside
// queue) accounts for its total. A lane's total ends when its result is
// delivered, somewhere between the end of its own spans and the start of
// the next lane's simulation (the end of run for the last lane), so the
// latter bounds it from above without a second goroutine's wake-up
// latency in the measurement.
func TestSequentialBatchQueueSpanCoversBatchmates(t *testing.T) {
	b, batch := sequentialBatch(t, 8)
	reqs := batch()
	b.run(reqs, 0, 1)
	returned := time.Now()
	results := make([]batchResult, len(reqs))
	for i, req := range reqs {
		results[i] = <-req.done
		if results[i].err != nil {
			t.Fatalf("lane %d: %v", i, results[i].err)
		}
	}
	for i, req := range reqs {
		st := results[i].stages
		sum := st.Queue + st.Encode + st.Simulate + st.Readout
		total := returned.Sub(req.enqueued)
		if i+1 < len(reqs) {
			total = results[i+1].stages.Queue // next lane's start; all lanes share one enqueue time
		}
		if sum > total || float64(sum) < 0.95*float64(total) {
			t.Errorf("lane %d: stage sum %v (queue %v) against a total of at most %v; want within 5%%",
				i, sum, st.Queue, total)
		}
	}
}

// TestSequentialBatchSkipsCanceledLane: a lane whose caller gives up
// while its batchmates simulate (here: right after the batch-start
// check, through the fault hook) gets its context error and no
// simulation, and the rest of the batch is unaffected. The response
// cache is the witness that nothing was simulated: it learns an image on
// its second recorded outcome, so after two identical batches it answers
// every lane but the cancelled one. A cancelled lane that duplicates
// ride still simulates — they need the outcome.
func TestSequentialBatchSkipsCanceledLane(t *testing.T) {
	const lanes, dead = 8, 5
	b, batch := sequentialBatch(t, lanes)
	runBatch := func(reqs []*batchRequest) []batchResult {
		b.run(reqs, 0, 1)
		results := make([]batchResult, len(reqs))
		for i, req := range reqs {
			results[i] = <-req.done
		}
		return results
	}
	want := runBatch(batch())

	b.cache = NewResponseCache(0, time.Hour)
	for round := 0; round < 2; round++ {
		reqs := batch()
		ctx, cancel := context.WithCancel(context.Background())
		reqs[dead].ctx = ctx
		b.injectFault = func() error { cancel(); return nil }
		for i, res := range runBatch(reqs) {
			switch {
			case i == dead && !errors.Is(res.err, context.Canceled):
				t.Fatalf("round %d: cancelled lane got %+v, %v; want context.Canceled", round, res.out, res.err)
			case i != dead && (res.err != nil || res.out != want[i].out):
				t.Fatalf("round %d lane %d: %+v, %v; uncancelled batch gave %+v", round, i, res.out, res.err, want[i].out)
			}
		}
	}
	for i, req := range batch() {
		if _, ok := b.cache.Lookup(req.hash, req.image, req.policy); ok != (i != dead) {
			t.Errorf("lane %d: response cache hit = %v after two batches; the cancelled lane alone must be unknown", i, ok)
		}
	}

	// The cancelled lane's twin arrives in the same batch: the
	// representative is dead, the rider is not, and it gets the outcome.
	reqs := batch()
	ctx, cancel := context.WithCancel(context.Background())
	reqs[dead].ctx = ctx
	b.injectFault = func() error { cancel(); return nil }
	twin := *reqs[dead]
	twin.ctx, twin.done = context.Background(), make(chan batchResult, 1)
	results := runBatch(append(reqs, &twin))
	if res := results[lanes]; res.err != nil || !res.deduped || res.out != want[dead].out {
		t.Fatalf("duplicate of a cancelled lane: %+v deduped=%v, %v; want %+v", res.out, res.deduped, res.err, want[dead].out)
	}
}

// admitAt holds b's queue at depth queued (placeholder requests) and runs
// n admissions through SubmitTraced with a cancelled context: each folds
// the queue fill into the batcher's pressure EWMA and steps the degrade
// controller, then returns before enqueueing.
func admitAt(b *Batcher, queued, n int) {
	for len(b.queue) > queued {
		<-b.queue
	}
	for len(b.queue) < queued {
		b.queue <- &batchRequest{done: make(chan batchResult, 1)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < n; i++ {
		b.SubmitTraced(ctx, []float64{0.5}, ExitPolicy{MaxSteps: 8})
	}
}

// TestDegradeControllerHysteresis pins the degraded-mode state machine
// on the batcher's pressure EWMA: a full queue enters at the high
// threshold (after five admissions, not on the first), a half-full one
// holds through the hysteresis band, and an empty one exits.
func TestDegradeControllerHysteresis(t *testing.T) {
	b := unstartedBatcher(4)
	d := NewDegradeController()
	b.degrade = d
	if d.Degraded() {
		t.Fatal("controller born degraded")
	}
	// Full queue: pressure climbs 1 - 0.75^n, crossing 0.75 at n = 5.
	admitAt(b, 4, 4)
	if d.Degraded() {
		t.Fatalf("degraded after 4 full-queue admissions (pressure %.3f)", b.Pressure())
	}
	admitAt(b, 4, 1)
	if mode, p := b.DegradeState(); mode != "degraded" || p < DefaultDegradeEnterPressure {
		t.Fatalf("DegradeState() = %q/%.2f, want degraded at >= %.2f", mode, p, DefaultDegradeEnterPressure)
	}
	// Half-full queue: pressure settles at 0.5, inside the band.
	admitAt(b, 2, 20)
	if !d.Degraded() {
		t.Fatalf("left degraded mode inside the hysteresis band (pressure %.3f)", b.Pressure())
	}
	// Empty queue: pressure decays below exit and the mode relaxes.
	admitAt(b, 0, 20)
	if mode, _ := b.DegradeState(); mode != "normal" {
		t.Fatalf("mode %q after sustained recovery (pressure %.3f), want normal", mode, b.Pressure())
	}
	if d.Enters() != 1 {
		t.Fatalf("Enters() = %d, want exactly 1 transition", d.Enters())
	}
}

// TestDegradeStateReportsBatcherPressure pins one queue-pressure number:
// DegradeState's pressure is Pressure(), with or without a controller.
func TestDegradeStateReportsBatcherPressure(t *testing.T) {
	for _, d := range []*DegradeController{nil, NewDegradeController()} {
		b := unstartedBatcher(4)
		b.degrade = d
		admitAt(b, 3, 6)
		b.pressureMu.Lock()
		b.pressureAt = time.Time{} // no idle decay between the two reads
		b.pressureMu.Unlock()
		mode, got := b.DegradeState()
		if want := b.Pressure(); got != want || got == 0 {
			t.Errorf("mode %q: DegradeState pressure %v, Pressure() %v; want equal and nonzero", mode, got, want)
		}
	}
}

func TestDegradeTightenPolicy(t *testing.T) {
	d := NewDegradeController()
	cases := []struct{ in, want ExitPolicy }{
		{ExitPolicy{MaxSteps: 96, MinSteps: 16, StableWindow: 12, Margin: 0.1},
			ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6, Margin: 0.1}},
		{ExitPolicy{MaxSteps: 96}, ExitPolicy{MaxSteps: 48}},
		{ExitPolicy{MaxSteps: 1}, ExitPolicy{MaxSteps: 1}},
		{ExitPolicy{MaxSteps: 3, MinSteps: 3, StableWindow: 1},
			ExitPolicy{MaxSteps: 2, MinSteps: 2, StableWindow: 1}},
	}
	for _, c := range cases {
		got := d.Tighten(c.in)
		if got != c.want {
			t.Errorf("Tighten(%+v) = %+v, want %+v", c.in, got, c.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("Tighten(%+v) produced invalid policy: %v", c.in, err)
		}
		// Determinism: same input, same tightened policy.
		if again := d.Tighten(c.in); again != got {
			t.Errorf("Tighten not deterministic: %+v then %+v", got, again)
		}
	}
}

// TestSubmitDegradedPolicy proves a degraded batcher enqueues requests
// under the tightened policy and flags them Degraded.
func TestSubmitDegradedPolicy(t *testing.T) {
	b := unstartedBatcher(4)
	d := NewDegradeController()
	b.degrade = d
	admitAt(b, 4, 5) // full queue: pressure crosses the enter threshold
	admitAt(b, 0, 0) // drain; the next admission's pressure stays in the band
	p := ExitPolicy{MaxSteps: 96, MinSteps: 16, StableWindow: 12}

	flagsCh := make(chan SubmitFlags, 1)
	go func() {
		_, _, flags, _ := b.SubmitTraced(context.Background(), []float64{0.5}, p)
		flagsCh <- flags
	}()
	req := <-b.queue
	if want := d.Tighten(p); req.policy != want {
		t.Fatalf("degraded request enqueued with policy %+v, want tightened %+v", req.policy, want)
	}
	req.done <- batchResult{err: ErrClosed}
	if flags := <-flagsCh; !flags.Degraded {
		t.Fatalf("SubmitFlags = %+v, want Degraded", flags)
	}
}

func TestSubmitCancelWhileWaitingForResult(t *testing.T) {
	b := unstartedBatcher(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, []float64{0.5}, ExitPolicy{MaxSteps: 8})
		done <- err
	}()
	// The request enqueues (queue has room) and then waits on its result.
	waitFor(t, func() bool { return b.QueueDepth() == 1 })
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit did not observe cancellation while waiting for its result")
	}
	// The abandoned request's done channel is buffered: a late delivery
	// must not block the (hypothetical) runner.
	req := <-b.queue
	req.done <- batchResult{}
}

func TestQueueDepthTracksLoad(t *testing.T) {
	b := unstartedBatcher(8)
	if d := b.QueueDepth(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
	for n := 1; n <= 8; n++ {
		go func() { _, _ = b.Submit(context.Background(), []float64{0.5}, ExitPolicy{MaxSteps: 8}) }()
		n := n
		waitFor(t, func() bool { return b.QueueDepth() == n })
	}
	// Draining one request at a time steps the gauge back down.
	for n := 7; n >= 0; n-- {
		req := <-b.queue
		req.done <- batchResult{err: ErrClosed}
		n := n
		waitFor(t, func() bool { return b.QueueDepth() == n })
	}
}

// waitFor polls cond until true or the deadline; backpressure state
// transitions are asynchronous (goroutine scheduling), never slow.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
