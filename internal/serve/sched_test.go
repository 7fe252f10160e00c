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
		d := NewStaticSched(c.min).Decide(c.lanes, nil)
		if d.Lockstep != c.want || d.Reason != c.reason {
			t.Errorf("StaticSched(min=%d).Decide(%d) = %+v, want lockstep=%v reason=%q",
				c.min, c.lanes, d, c.want, c.reason)
		}
	}
}

// TestAdaptiveSchedFlipsOnOccupancy is the acceptance check for
// measurement-driven steering: the same candidate batch flips between
// lockstep and sequential purely on the measured occupancy stream —
// no request-count rule involved once the controller is warm.
func TestAdaptiveSchedFlipsOnOccupancy(t *testing.T) {
	// High-occupancy stream: every lane stays live to the end
	// (laneStepsSum = lanes × batchSteps → occupancy fraction 1), so an
	// 8-lane candidate estimates occupancy 8 ≫ crossover.
	high := NewAdaptiveSched(0, autoLockstepMinLanes)
	for i := 0; i < adaptiveWarmup; i++ {
		high.ObserveOccupancy(8, 100, 800)
	}
	if d := high.Decide(3, nil); !d.Lockstep || d.Reason != ReasonOccHigh {
		// 3 lanes — below the old static ≥6 rule — must still go lockstep
		// when measured occupancy says it pays.
		t.Fatalf("high-occupancy stream, 3 lanes: %+v, want lockstep/occupancy-high", d)
	}

	// Low-occupancy stream: lanes retire almost immediately (fraction
	// 0.2), so even a full 8-lane batch estimates 1.6 < 2.0 and stays
	// sequential — the static rule would have said lockstep.
	low := NewAdaptiveSched(0, autoLockstepMinLanes)
	for i := 0; i < adaptiveWarmup; i++ {
		low.ObserveOccupancy(8, 100, 160)
	}
	d := low.Decide(8, nil)
	if d.Lockstep || d.Reason != ReasonOccLow {
		t.Fatalf("low-occupancy stream, 8 lanes: %+v, want sequential/occupancy-low", d)
	}
	if d.EstOccupancy < 1.5 || d.EstOccupancy > 1.7 {
		t.Fatalf("estimated occupancy %.3f, want ≈1.6 (8 lanes × 0.2 fraction)", d.EstOccupancy)
	}

	// The EWMA tracks a workload shift: the low-occupancy controller fed
	// a sustained high-occupancy stream flips back to lockstep.
	for i := 0; i < 20; i++ {
		low.ObserveOccupancy(8, 100, 800)
	}
	if d := low.Decide(8, nil); !d.Lockstep {
		t.Fatalf("after occupancy recovered: %+v, want lockstep", d)
	}
}

func TestAdaptiveSchedColdStart(t *testing.T) {
	a := NewAdaptiveSched(0, autoLockstepMinLanes)
	// No measurements and unpredicted lanes: the static fallback rule
	// decides, labelled cold-start either way.
	if d := a.Decide(8, nil); !d.Lockstep || d.Reason != ReasonColdStart {
		t.Fatalf("cold 8 lanes: %+v, want lockstep/cold-start (static ≥%d rule)", d, autoLockstepMinLanes)
	}
	if d := a.Decide(3, nil); d.Lockstep || d.Reason != ReasonColdStart {
		t.Fatalf("cold 3 lanes: %+v, want sequential/cold-start", d)
	}
	// A fully predicted batch needs no measurements: sum/max of the
	// predicted exits is the batch's occupancy.
	if d := a.Decide(3, []int{90, 100, 95}); !d.Lockstep || d.Reason != ReasonOccHigh {
		t.Fatalf("cold fully-predicted batch (occ 2.85): %+v, want lockstep/occupancy-high", d)
	}
	if d := a.Decide(3, []int{8, 10, 100}); d.Lockstep || d.Reason != ReasonOccLow {
		t.Fatalf("cold fully-predicted spread batch (occ 1.18): %+v, want sequential/occupancy-low", d)
	}
}

func TestAdaptiveSchedCrossoverKnob(t *testing.T) {
	// The same measured stream lands on opposite sides of two crossovers.
	for _, c := range []struct {
		crossover float64
		want      bool
	}{{1.2, true}, {3.0, false}} {
		a := NewAdaptiveSched(c.crossover, autoLockstepMinLanes)
		for i := 0; i < adaptiveWarmup; i++ {
			a.ObserveOccupancy(8, 100, 200) // fraction 0.25 → 8 lanes ≈ 2.0
		}
		if d := a.Decide(8, nil); d.Lockstep != c.want {
			t.Errorf("crossover %.1f: %+v, want lockstep=%v", c.crossover, d, c.want)
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
// acceptance check at the batcher level: with the adaptive scheduler
// and exit-aware forming live, staggered-exit traffic (mixed early-exit
// and full-budget policies, so the history reorders lanes and the
// controller's estimate moves) still produces the sequential engine's
// outcomes (sameOutcome: the lockstep plane's tolerance contract) —
// scheduling only changes who shares a microbatch.
func TestAdaptiveBatcherOutcomeInvariance(t *testing.T) {
	pool, image := testPool(t, 1)
	metrics := NewMetrics()
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

	px := coding.NewInterner(internerEntries)
	history := NewExitHistory(0, px)
	history.CountInto(&metrics.exitHistory)
	// fallbackMin 2 so even cold-start batches dispatch lockstep.
	sched := NewAdaptiveSched(0, 2)
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
				if !sameOutcome(out, want[i]) {
					t.Errorf("round %d request %d: adaptive-scheduled %+v, sequential %+v",
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
	if s.ExitHistoryHits == 0 {
		t.Errorf("exit history never produced a prediction across warm rounds: %+v", s)
	}
	if s.ExitPredictionError.Count == 0 {
		t.Errorf("no exit predictions were scored: %+v", s)
	}
	if samples, _ := sched.Stats(); samples == 0 {
		t.Error("adaptive controller measured no batches")
	}

	// Invariance across the response cache: attach it to the warmed
	// batcher and replay one request. The first two replays run the full
	// pipeline (sighting, then promotion); the third is a cache hit and
	// must still report the exact sequential outcome — with no pipeline
	// spans, since it never queued or simulated.
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
