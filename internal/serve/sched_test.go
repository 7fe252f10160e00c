package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
)

func TestStaticSchedRule(t *testing.T) {
	cases := []struct {
		min    int
		lanes  int
		want   bool
		reason string
	}{
		{0, 8, false, ReasonDisabled},
		{-1, 8, false, ReasonDisabled},
		{6, 5, false, ReasonBelowMin},
		{6, 6, true, ReasonStaticMin},
		{6, 8, true, ReasonStaticMin},
		{2, 2, true, ReasonStaticMin},
		// min 1 normalizes to 2: a single request has nothing to lockstep with.
		{1, 1, false, ReasonBelowMin},
		{1, 2, true, ReasonStaticMin},
	}
	for _, c := range cases {
		d := NewStaticSched(c.min).Decide(c.lanes)
		if d.Lockstep != c.want || d.Reason != c.reason {
			t.Errorf("StaticSched(min=%d).Decide(%d) = %+v, want lockstep=%v reason=%q",
				c.min, c.lanes, d, c.want, c.reason)
		}
	}
}

func TestOrderByPredictedExit(t *testing.T) {
	cases := []struct {
		preds []int
		want  []int
	}{
		// Predicted ascending first, unpredicted (<=0) last in arrival order.
		{[]int{0, 50, 10, 0, 30}, []int{2, 4, 1, 0, 3}},
		{[]int{5, 4, 3}, []int{2, 1, 0}},
		{[]int{0, 0, 0}, []int{0, 1, 2}},
		// Stable among equal predictions.
		{[]int{7, 7, 3, 7}, []int{2, 0, 1, 3}},
		{nil, []int{}},
	}
	for _, c := range cases {
		got := OrderByPredictedExit(c.preds)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("OrderByPredictedExit(%v) = %v, want %v", c.preds, got, c.want)
		}
	}
}

func TestExitHistoryDiscipline(t *testing.T) {
	h := NewExitHistory(4, coding.NewInterner(4))
	var count coding.HitMiss
	h.CountInto(&count)
	img := []float64{0.1, 0.2, 0.3}
	p := ExitPolicy{MaxSteps: 96, MinSteps: 8, StableWindow: 6}
	hash := coding.HashImage(img)

	// First sighting only marks the key seen — unique traffic must not
	// allocate entries (the coding.Memo promotion discipline).
	h.Record(hash, img, p, 40)
	if steps, ok := h.Predict(hash, img, p); ok {
		t.Fatalf("prediction after one sighting: %d; entries must need two sightings", steps)
	}
	h.Record(hash, img, p, 40)
	steps, ok := h.Predict(hash, img, p)
	if !ok || steps != 40 {
		t.Fatalf("Predict after promotion = %d,%v, want 40,true", steps, ok)
	}

	// The policy is part of the key: a different exit policy observes a
	// different step count and must not alias.
	other := ExitPolicy{MaxSteps: 96}
	if _, ok := h.Predict(hash, img, other); ok {
		t.Fatal("prediction leaked across exit policies")
	}

	// Re-recording updates in place.
	h.Record(hash, img, p, 44)
	if steps, _ := h.Predict(hash, img, p); steps != 44 {
		t.Fatalf("updated prediction = %d, want 44", steps)
	}

	// A hash collision (same hash, different pixels) must degrade to "no
	// prediction", never to the other image's exit step. Predict takes
	// the caller's hash, so the test forces the collision directly.
	collider := []float64{9, 9, 9}
	if steps, ok := h.Predict(hash, collider, p); ok {
		t.Fatalf("collision produced a prediction (%d steps)", steps)
	}

	// The traffic above was counted: hits and misses both nonzero.
	if hits, misses := count.Load(); hits == 0 || misses == 0 {
		t.Fatalf("counted %d hits, %d misses; want both nonzero", hits, misses)
	}
}

func TestExitHistoryBounded(t *testing.T) {
	h := NewExitHistory(8, coding.NewInterner(8))
	img := func(i int) []float64 { return []float64{float64(i), 1, 2} }
	p := ExitPolicy{MaxSteps: 96}
	for i := 0; i < 100; i++ {
		im := img(i)
		hash := coding.HashImage(im)
		h.Record(hash, im, p, 10+i)
		h.Record(hash, im, p, 10+i)
		if h.Len() > 8 {
			t.Fatalf("history grew past its bound: %d entries (max 8)", h.Len())
		}
	}
}

// TestAdaptiveBatcherOutcomeInvariance is the outcome-invariance
// acceptance check at the batcher level, under each -lockstep mode as
// the server resolves it: with exit-aware forming live, staggered-exit
// traffic (mixed early-exit and full-budget policies, so the history
// reorders lanes) still produces the sequential engine's outcomes —
// byte for byte on the sequential route (auto, off), within the lockstep
// plane's tolerance contract (sameOutcome) under on. Scheduling only
// changes who shares a microbatch and in what order.
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

	for _, mode := range []string{LockstepAuto, LockstepOn, LockstepOff} {
		t.Run(mode, func(t *testing.T) {
			sched, err := New(Config{LockstepBatch: mode}).buildScheduler()
			if err != nil {
				t.Fatal(err)
			}
			same := func(got, want Outcome) bool { return got == want }
			if mode == LockstepOn {
				same = sameOutcome
			}
			metrics := NewMetrics()
			px := coding.NewInterner(internerEntries)
			history := NewExitHistory(0, px)
			history.CountInto(&metrics.exitHistory)
			b := NewBatcher(pool, BatcherConfig{
				Metrics: metrics, Sched: sched, History: history,
				MaxBatch: 8, MaxDelay: 300 * time.Millisecond,
			})
			defer b.Close()

			// Several rounds: round 1 runs cold (no predictions), later rounds
			// hit the warmed history and re-order lanes by predicted exit.
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
						if !same(out, want[i]) {
							t.Errorf("round %d request %d: scheduled %+v, sequential %+v",
								round, i, out, want[i])
						}
					}(i)
				}
				wg.Wait()
			}

			s := metrics.Snapshot()
			if s.SchedLockstepBatches+s.SchedSequentialBatches == 0 {
				t.Fatal("no steering decisions recorded")
			}
			if lockstep := s.SchedLockstepBatches > 0; lockstep != (mode == LockstepOn) {
				t.Errorf("%d lockstep dispatches under -lockstep=%s: %+v", s.SchedLockstepBatches, mode, s)
			}
			if s.ExitHistoryHits == 0 {
				t.Errorf("exit history never produced a prediction across warm rounds: %+v", s)
			}
			if s.ExitPredictionError.Count == 0 {
				t.Errorf("no exit predictions were scored: %+v", s)
			}

			// Invariance across the response cache: attach it to the warmed
			// batcher and replay one request. The first two replays run the full
			// pipeline (sighting, then promotion); the third is a cache hit and
			// must still report the outcome the pipeline produced — with no
			// pipeline spans, since it never queued or simulated.
			cache := NewResponseCache(0, time.Hour, px)
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
	if _, err := b.Submit(ctx, img, p); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit with doomed deadline returned %v, want ErrOverloaded", err)
	}
	if d := b.QueueDepth(); d != 4 {
		t.Fatalf("QueueDepth = %d after projected-wait shed, want 4", d)
	}
	// Retry-After reflects the projected backlog (floored at 1s).
	if ra := b.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", ra)
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
// simulation, and the rest of the batch is unaffected. The exit history
// is the witness that nothing was simulated: it learns an image on its
// second recorded outcome, so after two identical batches it predicts
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

	b.history = NewExitHistory(0, coding.NewInterner(16))
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
		if _, ok := b.history.Predict(req.hash, req.image, req.policy); ok != (i != dead) {
			t.Errorf("lane %d: exit history prediction = %v after two batches; the cancelled lane alone must be unknown", i, ok)
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

// TestDegradeControllerHysteresis pins the degraded-mode state machine
// deterministically: EWMA'd pressure enters at the high threshold, holds
// through the hysteresis band, and exits only below the low threshold.
func TestDegradeControllerHysteresis(t *testing.T) {
	d := NewDegradeController(0, 0)
	if d.Degraded() {
		t.Fatal("controller born degraded")
	}
	// Saturated queue: pressure EWMA climbs to 1.0 and crosses enter.
	for i := 0; i < 10; i++ {
		d.Observe(8, 8)
	}
	if !d.Degraded() {
		t.Fatal("controller not degraded after sustained full-queue pressure")
	}
	if mode, p := d.State(); mode != "degraded" || p < DefaultDegradeEnterPressure {
		t.Fatalf("State() = %q/%.2f, want degraded at >= %.2f", mode, p, DefaultDegradeEnterPressure)
	}
	// Mid-band pressure (0.5): inside the hysteresis band, stays degraded.
	for i := 0; i < 20; i++ {
		d.Observe(4, 8)
	}
	if !d.Degraded() {
		t.Fatal("controller left degraded mode inside the hysteresis band")
	}
	// Empty queue: pressure decays below exit and the mode relaxes.
	for i := 0; i < 20; i++ {
		d.Observe(0, 8)
	}
	if d.Degraded() {
		t.Fatal("controller still degraded after sustained recovery")
	}
	if d.Enters() != 1 {
		t.Fatalf("Enters() = %d, want exactly 1 transition", d.Enters())
	}
}

func TestDegradeTightenPolicy(t *testing.T) {
	d := NewDegradeController(0, 0)
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
	d := NewDegradeController(0, 0)
	for i := 0; i < 10; i++ {
		d.Observe(8, 8) // force degraded before the batcher observes
	}
	b.degrade = d
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
