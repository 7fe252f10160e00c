package serve

import (
	"runtime"
	"sync"
	"time"
)

// formWindowFloor is the cut-off below which the forming window is zero:
// a window that fruitless waits would halve to MaxDelay/formWindowFloor or
// less is not armed at all. A timer that short is a fiction — the runtime
// parks an idle P in epoll_wait with a whole-millisecond timeout, so the
// 125 µs a sixteenth of the default MaxDelay asks for costs a lone request
// about 1.1 ms — and a zero window needs no timer to come back: a near
// miss restores it, and a batch blocked on an execution slot collects
// without one (see internal/README.md "Batch forming").
const formWindowFloor = 16

// formWindow is how long a partial batch waits for company, adapted from
// what waiting actually gathered. BatcherConfig.MaxDelay is its upper
// bound and its starting value. It is clock-free (the dispatcher tells it
// what happened) and owned by the dispatcher goroutine alone.
//
// Inter-arrival time is deliberately not an input: under closed-loop
// callers the next arrival is caused by the previous reply, so a short
// gap says nothing about whether waiting would have gathered it. Only two
// things are evidence that waiting pays — a request that joined during a
// timed wait, and a near miss (see nearMiss).
type formWindow struct {
	max time.Duration // upper bound; 0 never waits (drain-only)
	cur time.Duration
}

func newFormWindow(maxDelay time.Duration) formWindow {
	if maxDelay < 0 {
		maxDelay = 0
	}
	return formWindow{max: maxDelay, cur: maxDelay}
}

// next is how long the partial batch being formed may wait for company.
func (w *formWindow) next() time.Duration { return w.cur }

// waited records how a timed wait of next() ended. A joiner restores the
// full window (that includes a wait cut short because the batch filled);
// a fruitless wait halves it, and a window that would fall to
// max/formWindowFloor or below becomes zero: no further wait is armed
// until a near miss restores it.
func (w *formWindow) waited(joined bool) {
	if joined {
		w.cur = w.max
		return
	}
	w.cur /= 2
	if w.cur <= w.max/formWindowFloor {
		w.cur = 0
	}
}

// nearMiss records a request that arrived within max of a partial batch's
// dispatch while that batch had not yet replied to anyone: the batch left
// too early, and no reply of its own can have caused the arrival. It
// restores the full window.
func (w *formWindow) nearMiss() { w.cur = w.max }

// dispatch collects batches until the queue is closed and drained. The
// slots channel bounds concurrently executing batches to the pool size:
// without it the dispatcher would eagerly drain the queue into a pile
// of goroutines serialized on replica checkout, and the queue bound —
// the overload signal — would never engage.
//
// Forming adapts to what waiting earns. A batch takes whatever is queued, yields
// once so callers that are already runnable can enqueue (the channel
// hand-off wakes the dispatcher ahead of them), and takes what that
// brought. Still short of full, it waits for company only as long as the
// formWindow says — not at all once waiting has stopped gathering
// anything: a zero window arms no timer and the batch leaves at once. And
// while every execution slot is busy it keeps collecting: waiting for a
// replica is forming time that costs nothing.
func (b *Batcher) dispatch() {
	var batches sync.WaitGroup
	defer func() {
		batches.Wait()
		close(b.done)
	}()
	// Slots are sized to the pool's ceiling, not its current width:
	// replica checkout still serializes execution at the live Size, and
	// sizing to Max lets an autoscaler grow the pool without restarting
	// the dispatcher. With a fixed pool (Max == Size, the default) this
	// is the old bound exactly.
	slotCap := 1
	if b.pool != nil {
		slotCap = b.pool.Max()
	}
	slots := make(chan struct{}, slotCap)
	for i := 0; i < slotCap; i++ {
		slots <- struct{}{}
	}

	win := newFormWindow(b.maxDelay)
	adaptive := b.maxDelay > 0 // else drain-only: no yield, no wait, no collecting
	var timer *time.Timer      // one timer for every timed wait
	// prev is the most recently dispatched batch: its sequence number
	// (b.replied holds the newest one that has started replying), when it
	// left, and whether it left short of full.
	var prev struct {
		seq     uint64
		at      time.Time
		partial bool
	}
	queue := b.queue // nil once closed, so selects stop choosing it

	// admit takes one dequeued request into the forming batch, unless it
	// is shed, and checks it for a near miss.
	admit := func(batch []*batchRequest, req *batchRequest) []*batchRequest {
		if b.shedAtDispatch(req) {
			return batch
		}
		if prev.partial && b.replied.Load() < prev.seq && req.enqueued.Sub(prev.at) <= b.maxDelay {
			win.nearMiss()
			b.formWindowNs.Store(int64(win.next()))
		}
		if batch == nil {
			batch = make([]*batchRequest, 0, b.maxBatch)
		}
		return append(batch, req)
	}
	// drain admits what is queued right now, without blocking.
	drain := func(batch []*batchRequest) []*batchRequest {
		for len(batch) < b.maxBatch {
			select {
			case req, ok := <-queue:
				if !ok {
					queue = nil
					return batch
				}
				batch = admit(batch, req)
			default:
				return batch
			}
		}
		return batch
	}

	for first := range b.queue {
		formStart := time.Now()
		batch := admit(nil, first)
		if batch == nil {
			continue
		}
		batch = drain(batch)
		// short: the batch has room and company can still arrive (a closed
		// queue has nobody left to yield to or wait for).
		short := func() bool { return adaptive && queue != nil && len(batch) < b.maxBatch }
		if short() {
			runtime.Gosched()
			batch = drain(batch)
		}
		if short() {
			// With the window at zero the batch leaves at once: no timer is
			// armed, and a wait that did not happen is neither joined nor
			// fruitless, so the window stays where it is.
			outcome := FormSkipped
			if wait := win.next(); wait > 0 {
				had := len(batch)
				if timer == nil {
					timer = time.NewTimer(wait)
				} else {
					timer.Reset(wait)
				}
			collect:
				for len(batch) < b.maxBatch {
					select {
					case req, ok := <-queue:
						if !ok {
							queue = nil
							break collect
						}
						batch = admit(batch, req)
					case <-timer.C:
						break collect
					case <-b.closeCtx.Done():
						break collect
					}
				}
				timer.Stop() // go.mod is past go1.23: no stale tick survives Stop
				outcome = FormFruitless
				if len(batch) > had {
					outcome = FormJoined
				}
				win.waited(outcome == FormJoined)
				b.formWindowNs.Store(int64(win.next()))
			}
			if b.metrics != nil {
				b.metrics.ObserveFormWait(outcome)
			}
		}

		// Take an execution slot. A free one is taken at once; otherwise
		// the batch goes on collecting until one frees or it is full.
		gotSlot := false
		select {
		case <-slots:
			gotSlot = true
		default:
		}
	blocked:
		for !gotSlot {
			more := queue
			if !adaptive || len(batch) >= b.maxBatch {
				more = nil
			}
			select {
			case <-slots:
				gotSlot = true
			case req, ok := <-more:
				if !ok {
					queue = nil
				} else {
					batch = admit(batch, req)
				}
			case <-b.closeCtx.Done():
				// Closing while waiting to execute: take a free slot if one
				// exists, otherwise this batch counts as queued and fails.
				select {
				case <-slots:
					gotSlot = true
				default:
				}
				break blocked
			}
		}
		if !gotSlot {
			for _, req := range batch {
				b.forward(req)
			}
			continue
		}
		now := time.Now()
		prev.seq++
		prev.at, prev.partial = now, len(batch) < b.maxBatch
		batches.Add(1)
		go func(reqs []*batchRequest, form time.Duration, seq uint64) {
			defer func() {
				b.markReplied(seq) // a batch that failed before delivering
				slots <- struct{}{}
				batches.Done()
			}()
			b.run(reqs, form, seq)
		}(batch, now.Sub(formStart), prev.seq)
	}
}

// markReplied records that batch seq has started replying (or ended), so
// arrivals from here on may be caused by its replies and no longer count
// as near misses against it. Batches finish out of order on a wide pool;
// only the newest sequence number is kept.
func (b *Batcher) markReplied(seq uint64) {
	for {
		cur := b.replied.Load()
		if cur >= seq || b.replied.CompareAndSwap(cur, seq) {
			return
		}
	}
}
