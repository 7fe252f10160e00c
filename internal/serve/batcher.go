package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/obs"
	"burstsnn/internal/snn"
)

// ErrClosed is returned by Submit after the batcher has been closed.
var ErrClosed = errors.New("serve: batcher closed")

// ErrOverloaded is returned by Submit when the admission plane sheds a
// request instead of queueing it: the admission queue is full, or the
// projected queue wait already exceeds the request's deadline. The
// server maps it to HTTP 429 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded")

// drainEWMAWeight smooths the measured per-request drain time that
// backs projected-wait shedding and Retry-After hints, and the queue
// pressure filter (both fold bursty per-batch samples).
const drainEWMAWeight = 0.25

// Batcher is the microbatching request queue in front of a replica pool.
// Requests are grouped into batches of up to MaxBatch. A partial batch
// waits for company inside an adaptive forming window: MaxDelay is its
// upper bound, and it decays to zero for traffic that waiting does not
// gather (see form.go). Each batch checks out one replica and runs its
// requests back to back on the sequential engine, shortest predicted job
// first; under LockstepOn (see sched.go) multi-request batches run
// lockstep through the replica's batch simulator instead. Networks that
// cannot batch (and single-request dispatches) always run sequentially;
// both paths produce outcomes pinned by the same bit-identity/tolerance
// contracts, so the choice is outcome-invariant.
//
// In front of the queue sits the overload plane: an optional cross-batch
// response cache answers replayed (image, policy) pairs without a queue
// slot or replica; admission sheds (ErrOverloaded) instead of blocking
// when the queue is full or the projected wait exceeds the request's
// deadline; requests whose deadline expired while queued are shed at
// dispatch time, before they join a batch; and an optional degrade
// controller tightens the exit policy of every admitted request while
// queue pressure is high. Concurrent batch execution is bounded to the
// pool size, so the queue — not a pile of goroutines blocked on replica
// checkout — is where backlog accumulates and gets measured.
type Batcher struct {
	pool     *Pool
	metrics  *Metrics           // batch-occupancy/steps-saved/steering gauges; may be nil
	sched    *StaticSched       // lockstep-vs-sequential rule; nil = never lockstep
	history  *ExitHistory       // exit-aware forming memory; nil disables forming/prediction
	cache    *ResponseCache     // cross-batch response cache; nil disables
	degrade  *DegradeController // degraded-mode state machine; nil disables
	fair     *FairSlot          // cross-model fair execution slots; nil disables
	maxBatch int
	maxDelay time.Duration

	injectLatency time.Duration // test hook: extra per-batch replica hold time
	injectFault   func() error  // test hook: non-nil error fails the batch

	queue chan *batchRequest

	mu      sync.Mutex
	closed  bool
	handoff *Batcher       // successor installed by CloseHandoff; nil otherwise
	sending sync.WaitGroup // Submits past the closed check, not yet enqueued

	// drainPerReq is the EWMA'd replica-seconds one queued request costs
	// (batch wall time / batch size), the basis of projected queue wait.
	drainMu      sync.Mutex
	drainPerReq  float64 // seconds
	drainSamples int

	// pressure is an always-on EWMA of queue fill (len/cap in [0,1])
	// sampled at every admission — the same signal the degrade controller
	// filters, but available even when no controller is attached. The
	// fleet tier's pool autoscaler reads it per shard. pressureAt is the
	// filter's last-fold time, driving idle decay (see decayPressure).
	pressureMu sync.Mutex
	pressure   float64
	pressureAt time.Time

	// formWindowNs is the dispatcher's live forming window (a gauge: the
	// dispatcher stores, scrapes load). replied is the sequence number of
	// the newest batch that has started replying — the dispatcher's
	// near-miss test reads it (see form.go).
	formWindowNs atomic.Int64
	replied      atomic.Uint64

	fallbackOnce sync.Once // one log line for a replica that cannot batch

	// closeCtx is canceled by Close: replica checkouts for batches that
	// have not started abort immediately (ErrClosed) while batches
	// already holding a replica drain normally.
	closeCtx    context.Context
	closeCancel context.CancelFunc

	done chan struct{} // dispatcher drained and all batches finished
}

// BatcherConfig carries NewBatcher's optional collaborators and tuning;
// the zero value is a plain 1-request-at-a-time batcher.
type BatcherConfig struct {
	Metrics  *Metrics           // batch/steering gauges; nil disables
	Sched    *StaticSched       // lockstep-vs-sequential rule; nil never lockstep
	History  *ExitHistory       // exit-step memory; nil disables exit-aware forming
	Cache    *ResponseCache     // cross-batch response cache; nil disables
	Degrade  *DegradeController // degraded-mode controller; nil disables
	Fair     *FairSlot          // cross-model fair slots (see FairDispatcher); nil disables
	MaxBatch int                // lanes per microbatch; <= 0 defaults to 1
	// MaxDelay is the upper bound of the adaptive forming window (see
	// formWindow), which decays to zero for traffic that waiting does not
	// gather; <= 0 dispatches on queue drain.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; <= 0 defaults to 4× MaxBatch.
	// Submits beyond it shed with ErrOverloaded.
	QueueDepth int

	// InjectLatency and InjectFault are overload-test hooks: every batch
	// holds its replica InjectLatency longer, and a non-nil InjectFault
	// error fails the batch's live requests before execution.
	InjectLatency time.Duration
	InjectFault   func() error
}

type batchRequest struct {
	ctx      context.Context
	image    []float64
	hash     uint64 // coding.HashImage(image), computed once at submit
	policy   ExitPolicy
	enqueued time.Time // Submit time; queue-wait span start
	done     chan batchResult
}

type batchResult struct {
	out Outcome
	// stages carries the request's measured stage spans back to the
	// server (queue/form from the batcher, engine spans from the
	// classify call that served it).
	stages  obs.StageTimes
	deduped bool
	err     error
}

// SubmitFlags reports how a request was served, alongside its outcome.
type SubmitFlags struct {
	Deduped  bool // answered by in-window duplicate fan-out
	Cached   bool // answered by the response cache; never queued or simulated
	Degraded bool // ran under the degraded-mode tightened policy
}

// NewBatcher starts the dispatcher. See BatcherConfig for the knobs and
// collaborators; the batcher owns none of them (the server shares
// Metrics/History/Cache with its snapshot plane).
func NewBatcher(pool *Pool, cfg BatcherConfig) *Batcher {
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 1
	}
	queueDepth := cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 4 * maxBatch
	}
	closeCtx, closeCancel := context.WithCancel(context.Background())
	b := &Batcher{
		pool:          pool,
		metrics:       cfg.Metrics,
		sched:         cfg.Sched,
		history:       cfg.History,
		cache:         cfg.Cache,
		degrade:       cfg.Degrade,
		fair:          cfg.Fair,
		maxBatch:      maxBatch,
		maxDelay:      cfg.MaxDelay,
		injectLatency: cfg.InjectLatency,
		injectFault:   cfg.InjectFault,
		queue:         make(chan *batchRequest, queueDepth),
		closeCtx:      closeCtx,
		closeCancel:   closeCancel,
		done:          make(chan struct{}),
	}
	win := newFormWindow(b.maxDelay) // the gauge starts where the dispatcher's window does
	b.formWindowNs.Store(int64(win.next()))
	go b.dispatch()
	return b
}

// Submit enqueues one classification and blocks until its result, the
// context's cancellation, or batcher shutdown.
func (b *Batcher) Submit(ctx context.Context, image []float64, p ExitPolicy) (Outcome, error) {
	out, _, _, err := b.SubmitTraced(ctx, image, p)
	return out, err
}

// SubmitTraced is Submit returning the request's measured stage spans
// (queue wait, batch formation, and the engine's encode/simulate/readout
// — see internal/obs) plus how the request was served (SubmitFlags).
// Spans are zero on error paths that never executed and on cache hits,
// which never enter the pipeline.
//
// Admission runs in order: degraded-mode observation (and policy
// tightening while degraded), response-cache lookup, then deadline-aware
// admission — a request already past its deadline, or whose remaining
// deadline is smaller than the projected queue wait, or arriving at a
// full queue, is shed immediately (ErrOverloaded / its context error)
// rather than left to time out while holding a queue slot.
func (b *Batcher) SubmitTraced(ctx context.Context, image []float64, p ExitPolicy) (Outcome, obs.StageTimes, SubmitFlags, error) {
	var flags SubmitFlags
	b.mu.Lock()
	if b.closed {
		nb := b.handoff
		b.mu.Unlock()
		if nb != nil {
			// Hot swap in progress: this batcher was replaced, so the
			// request belongs to its successor. Submitting there re-runs
			// the successor's own admission (pressure, degrade, cache).
			return nb.SubmitTraced(ctx, image, p)
		}
		return Outcome{}, obs.StageTimes{}, flags, ErrClosed
	}
	b.sending.Add(1)
	b.mu.Unlock()

	b.observePressure()
	if b.degrade != nil {
		// Pressure is sampled at every admission — including ones that end
		// as cache hits or sheds — so the controller sees recovery too.
		b.degrade.Observe(len(b.queue), cap(b.queue))
		if b.degrade.Degraded() {
			p = b.degrade.Tighten(p)
			flags.Degraded = true
		}
	}

	// Hash once per request: the cache, dedupe, and exit-history lookups
	// all key on this, so no later stage rehashes the pixels. The lookup
	// uses the (possibly tightened) effective policy — a degraded request
	// can only be answered by a degraded-policy entry.
	hash := coding.HashImage(image)
	if b.cache != nil {
		if out, ok := b.cache.Lookup(hash, image, p); ok {
			b.sending.Done()
			flags.Cached = true
			return out, obs.StageTimes{}, flags, nil
		}
	}

	if err := ctx.Err(); err != nil {
		b.sending.Done()
		return Outcome{}, obs.StageTimes{}, flags, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		if wait := b.projectedWait(); wait > 0 && time.Until(deadline) < wait {
			b.sending.Done()
			return Outcome{}, obs.StageTimes{}, flags,
				fmt.Errorf("%w: projected queue wait %v exceeds request deadline", ErrOverloaded, wait)
		}
	}

	req := &batchRequest{
		ctx: ctx, image: image, hash: hash, policy: p,
		enqueued: time.Now(), done: make(chan batchResult, 1),
	}
	select {
	case b.queue <- req:
		b.sending.Done()
	default:
		// Queue full: shed now. Blocking here would just convert the
		// overload into client-side timeouts with no signal.
		b.sending.Done()
		return Outcome{}, obs.StageTimes{}, flags, ErrOverloaded
	}
	select {
	case res := <-req.done:
		flags.Deduped = res.deduped
		return res.out, res.stages, flags, res.err
	case <-ctx.Done():
		// The batch may still execute the request; done is buffered so
		// the runner never blocks on an abandoned request.
		return Outcome{}, obs.StageTimes{}, flags, ctx.Err()
	}
}

// QueueDepth reports how many submitted requests are waiting in the
// admission queue right now (a live gauge for /metrics; the queue's
// bound is the shedding limit, see BatcherConfig.QueueDepth).
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// FormWindow reports how long the next partial batch would wait for
// company, as the dispatcher last set it: MaxDelay is the upper bound; it
// decays to zero for traffic that waiting does not gather.
func (b *Batcher) FormWindow() time.Duration { return time.Duration(b.formWindowNs.Load()) }

// DegradeState reports the degraded-mode state machine's mode and
// smoothed queue-pressure signal ("off" when no controller is attached).
func (b *Batcher) DegradeState() (mode string, pressure float64) {
	if b.degrade == nil {
		return "off", 0
	}
	return b.degrade.State()
}

// pressureIdleTick is the synthetic observation period for the pressure
// EWMA while no admissions arrive. The filter is admission-driven, so
// without it a saturated reading would pin forever once traffic stops —
// an idle queue is an empty queue, and the autoscaler's shrink path must
// see that drain.
const pressureIdleTick = 100 * time.Millisecond

// observePressure folds the instantaneous queue fill into the always-on
// pressure EWMA (same smoothing weight as the drain filter).
func (b *Batcher) observePressure() {
	fill := float64(len(b.queue)) / float64(cap(b.queue))
	now := time.Now()
	b.pressureMu.Lock()
	b.decayPressureLocked(now)
	b.pressure += drainEWMAWeight * (fill - b.pressure)
	b.pressureAt = now
	b.pressureMu.Unlock()
}

// decayPressureLocked applies one zero-fill fold per pressureIdleTick
// elapsed since the last observation. Under steady traffic admissions
// arrive well inside a tick and this is a no-op.
func (b *Batcher) decayPressureLocked(now time.Time) {
	if b.pressureAt.IsZero() {
		return
	}
	if ticks := now.Sub(b.pressureAt) / pressureIdleTick; ticks > 0 {
		b.pressure *= math.Pow(1-drainEWMAWeight, float64(ticks))
		b.pressureAt = b.pressureAt.Add(ticks * pressureIdleTick)
	}
}

// Pressure reports the smoothed queue-fill fraction in [0,1]. Unlike
// DegradeState's signal it needs no controller attached; it is the fleet
// autoscaler's per-shard control input.
func (b *Batcher) Pressure() float64 {
	b.pressureMu.Lock()
	defer b.pressureMu.Unlock()
	b.decayPressureLocked(time.Now())
	return b.pressure
}

// projectedWait estimates how long a request admitted right now would
// wait before executing: queued requests × EWMA'd per-request drain
// time, divided across the replica pool. Zero until the first batch has
// been measured or while the queue is empty.
func (b *Batcher) projectedWait() time.Duration {
	b.drainMu.Lock()
	perReq := b.drainPerReq
	b.drainMu.Unlock()
	queued := len(b.queue)
	if perReq <= 0 || queued <= 0 {
		return 0
	}
	replicas := 1
	if b.pool != nil {
		replicas = b.pool.Size()
	}
	return time.Duration(float64(queued) * perReq / float64(replicas) * float64(time.Second))
}

// RetryAfter is the server's Retry-After hint on 429 responses: the
// projected queue wait, floored at one second.
func (b *Batcher) RetryAfter() time.Duration {
	if wait := b.projectedWait(); wait > time.Second {
		return wait
	}
	return time.Second
}

// observeDrain feeds one executed batch's wall time into the per-request
// drain-time EWMA behind projectedWait.
func (b *Batcher) observeDrain(wall time.Duration, requests int) {
	if requests <= 0 || wall <= 0 {
		return
	}
	perReq := wall.Seconds() / float64(requests)
	b.drainMu.Lock()
	if b.drainSamples == 0 {
		b.drainPerReq = perReq
	} else {
		b.drainPerReq += drainEWMAWeight * (perReq - b.drainPerReq)
	}
	b.drainSamples++
	b.drainMu.Unlock()
}

// Close stops accepting requests and shuts down: batches already holding
// a replica drain to completion, while queued requests — and formed
// batches still waiting for an execution slot — fail fast with ErrClosed
// instead of executing (under saturation the queue can hold many
// multiples of a replica's drain rate; executing it all would stall
// shutdown for seconds). It is idempotent and returns only after the
// dispatcher and every batch goroutine have exited.
func (b *Batcher) Close() { b.closeWith(nil, false) }

// CloseHandoff closes like Close but re-routes instead of failing: late
// Submits and every queued or not-yet-executing request are re-submitted
// to nb, the batcher that replaced this one in a hot swap. Clients see
// at most extra latency (or an honest ErrOverloaded if the successor's
// queue is full) — never ErrClosed. Handoffs chain: if nb is itself
// replaced before the drain finishes, requests follow the successor
// links to the live batcher.
func (b *Batcher) CloseHandoff(nb *Batcher) { b.closeWith(nb, false) }

// CloseGraceful closes without abandoning queued work: admission stops
// (late Submits get ErrClosed), but everything already queued executes
// on the still-live pool before the call returns. This is the
// unregister/evict drain — the pool is about to be released, so queued
// requests must finish on it rather than re-route.
func (b *Batcher) CloseGraceful() { b.closeWith(nil, true) }

// closeWith implements the three close modes. Fast modes (Close,
// CloseHandoff) cancel closeCtx first so queued requests fail or
// forward without executing; graceful mode leaves closeCtx live until
// the dispatcher has drained the queue for real.
func (b *Batcher) closeWith(nb *Batcher, graceful bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.handoff = nb
	b.mu.Unlock()
	if !graceful {
		b.closeCancel()
	}
	b.sending.Wait() // every in-flight Submit has enqueued or bailed
	close(b.queue)
	<-b.done
	if graceful {
		b.closeCancel()
	}
}

// forward re-routes a request this batcher can no longer execute to the
// successor installed by CloseHandoff, falling back to ErrClosed when
// there is none (plain Close / CloseGraceful).
func (b *Batcher) forward(req *batchRequest) {
	b.mu.Lock()
	nb := b.handoff
	b.mu.Unlock()
	if nb == nil {
		req.done <- batchResult{err: ErrClosed}
		return
	}
	nb.accept(req)
}

// accept takes a forwarded, already-admitted request into this batcher's
// queue (non-blocking: a full successor queue sheds honestly with
// ErrOverloaded rather than stalling the predecessor's drain). If this
// batcher has itself been closed, the request follows the handoff chain.
func (b *Batcher) accept(req *batchRequest) {
	b.mu.Lock()
	if b.closed {
		nb := b.handoff
		b.mu.Unlock()
		if nb != nil {
			nb.accept(req)
			return
		}
		req.done <- batchResult{err: ErrClosed}
		return
	}
	b.sending.Add(1)
	b.mu.Unlock()
	select {
	case b.queue <- req:
	default:
		req.done <- batchResult{err: ErrOverloaded}
	}
	b.sending.Done()
}

// shedAtDispatch fails a dequeued request that should not join a batch:
// the batcher is closing, or the request's deadline expired / context
// was canceled while it sat in the queue. Returns true when shed. This
// runs before the request would consume batch-forming time or replica
// work (previously dead requests were only dropped at batch-exec start,
// after riding a formed batch through replica checkout).
func (b *Batcher) shedAtDispatch(req *batchRequest) bool {
	if b.closeCtx.Err() != nil {
		b.forward(req)
		return true
	}
	if err := req.ctx.Err(); err != nil {
		req.done <- batchResult{err: err}
		return true
	}
	return false
}

// run executes one batch on a single checked-out replica. Checkout uses
// closeCtx — never a request context, since a canceled request must not
// fail its batchmates — so a batch that has not yet obtained a replica
// when Close fires fails with ErrClosed instead of executing.
//
// Identical requests — same pixel contents, same policy — are classified
// once and fanned out: the simulator is deterministic, so a duplicate's
// outcome is exactly its representative's. Matching goes through the
// image content hash with a pixel-equality check on hit (like
// coding.Memo), so a hash collision degrades to a non-duplicate,
// never to another image's result. Retry/replay-heavy traffic thus pays
// for one simulation per distinct image per microbatch; the deduped
// count is surfaced as dedupedRequests in /metrics.
//
// The surviving unique requests go through the scheduling plane: the
// exit history (when attached) predicts each lane's exit step and the
// batch is re-ordered by predicted exit — shortest job first on the
// sequential route, lanes that retire together sharing a chunk on the
// lockstep one — and the static rule picks the route. Scheduling only
// reorders microbatch membership — both paths produce the outcomes
// pinned by the tolerance contract.
func (b *Batcher) run(reqs []*batchRequest, form time.Duration, seq uint64) {
	if b.fair != nil {
		if err := b.fair.Acquire(b.closeCtx); err != nil {
			// Closed before a slot was granted: same disposition as a
			// failed checkout — follow the handoff chain or fail closed.
			for _, req := range reqs {
				b.forward(req)
			}
			return
		}
		defer b.fair.Release()
	}
	rep, err := b.pool.Get(b.closeCtx)
	if err != nil {
		if b.closeCtx.Err() != nil {
			for _, req := range reqs {
				b.forward(req)
			}
			return
		}
		resErr := fmt.Errorf("serve: replica checkout: %w", err)
		for _, req := range reqs {
			req.done <- batchResult{err: resErr}
		}
		return
	}
	defer b.pool.Put(rep)
	// The batch holds a replica and starts executing. A lockstep lane's
	// queue span ends here (enqueue → execStart: the channel wait, the
	// formation window and the checkout wait); a sequential lane's runs on
	// to its own simulation start, behind its batchmates.
	execStart := time.Now()
	defer func() { b.observeDrain(time.Since(execStart), len(reqs)) }()
	if b.injectLatency > 0 {
		time.Sleep(b.injectLatency)
	}
	live := reqs[:0]
	for _, req := range reqs {
		if req.ctx.Err() != nil {
			req.done <- batchResult{err: req.ctx.Err()}
			continue
		}
		live = append(live, req)
	}
	if b.injectFault != nil {
		if err := b.injectFault(); err != nil {
			for _, req := range live {
				req.done <- batchResult{err: fmt.Errorf("serve: injected fault: %w", err)}
			}
			return
		}
	}
	var dups map[*batchRequest][]*batchRequest
	if len(live) > 1 {
		live, dups = b.dedupe(live)
	}
	// Exit-aware forming: predict each lane's exit step from history and
	// order lanes by predicted exit (unpredicted last). preds stays
	// aligned with live through the reorder and the chunking below (all
	// zeros — no predictions — when no history is attached).
	var preds []int
	if len(live) > 1 {
		preds = make([]int, len(live))
	}
	if b.history != nil && len(live) > 1 {
		predicted := false
		for i, req := range live {
			if steps, ok := b.history.Predict(req.hash, req.image, req.policy); ok {
				preds[i] = steps
				predicted = true
			}
		}
		if predicted {
			order := OrderByPredictedExit(preds)
			sortedLive := make([]*batchRequest, len(live))
			sortedPreds := make([]int, len(preds))
			for dst, src := range order {
				sortedLive[dst] = live[src]
				sortedPreds[dst] = preds[src]
			}
			copy(live, sortedLive)
			copy(preds, sortedPreds)
		}
	}
	waited := false // a simulation has run since the batch-start context check
	if b.sched != nil && len(live) > 1 {
		dec := b.sched.Decide(len(live))
		if b.metrics != nil {
			b.metrics.ObserveSchedDecision(dec)
		}
		if dec.Lockstep {
			// The lockstep simulator caps a batch at snn.MaxBatchLanes
			// lanes; a MaxBatch configured beyond that runs in chunks
			// rather than silently degrading to sequential execution.
			laneCap := b.maxBatch
			if laneCap > snn.MaxBatchLanes {
				laneCap = snn.MaxBatchLanes
			}
			bn, err := rep.Batch(laneCap, true)
			if err != nil {
				// The steering plane asked for lockstep but the replica
				// cannot batch (encoder or network shape): degrading to
				// sequential silently would just look slow, so count every
				// occurrence and say why once.
				if b.metrics != nil {
					b.metrics.ObserveLockstepFallback()
				}
				b.fallbackOnce.Do(func() {
					slog.Warn("serve: lockstep unavailable, batches run sequentially",
						"error", err)
				})
			} else {
				for len(live) > 1 {
					chunk, chunkPreds := live, preds
					if len(chunk) > laneCap {
						chunk, chunkPreds = chunk[:laneCap], chunkPreds[:laneCap]
					}
					live, preds = live[len(chunk):], preds[len(chunk):]
					images := make([][]float64, len(chunk))
					policies := make([]ExitPolicy, len(chunk))
					for i, req := range chunk {
						images[i] = req.image
						policies[i] = req.policy
					}
					outs, batchSteps, times := ClassifyBatchStaged(bn, images, policies)
					waited = true
					times.Form = form
					saved := 0
					for i, req := range chunk {
						saved += batchSteps - outs[i].Steps
						b.observeOutcome(req, chunkPreds[i], outs[i])
						b.deliver(seq, req, batchResult{out: outs[i], stages: times}, dups, execStart)
					}
					if b.metrics != nil {
						b.metrics.ObserveBatch(len(chunk), saved)
					}
				}
			}
		}
	}
	// Sequential path (the default route, and a lone lane left over after
	// lockstep chunking). Lane i waits out i simulations, so its queue
	// span ends at its own start, and a lane whose caller gave up during
	// that wait is answered as the batch-start check answers it, without
	// a simulation — unless duplicates ride it, which still need the
	// outcome. The first lane of a batch that has simulated nothing yet
	// starts where that check left it.
	for i, req := range live {
		if waited && len(dups[req]) == 0 {
			if err := req.ctx.Err(); err != nil {
				req.done <- batchResult{err: err}
				continue
			}
		}
		waited = true
		start := time.Now()
		out, times := ClassifyStaged(rep.Net, req.image, req.policy)
		times.Form = form
		pred := 0
		if preds != nil {
			pred = preds[i]
		}
		b.observeOutcome(req, pred, out)
		b.deliver(seq, req, batchResult{out: out, stages: times}, dups, start)
	}
}

// observeOutcome feeds one classified request back into the scheduling
// and caching planes: the exit history learns the observed exit step, a
// lane that carried a prediction scores it against the actual step count
// (the predicted-vs-actual error histogram in /metrics), and the
// response cache learns the outcome so replays are served upstream.
func (b *Batcher) observeOutcome(req *batchRequest, pred int, out Outcome) {
	if b.history != nil {
		b.history.Record(req.hash, req.image, req.policy, out.Steps)
	}
	if b.cache != nil {
		b.cache.Record(req.hash, req.image, req.policy, out)
	}
	if pred > 0 && b.metrics != nil {
		b.metrics.ObserveExitPrediction(pred, out.Steps)
	}
}

// dedupe partitions live requests into unique representatives and their
// duplicate fans. Requests count as duplicates only when the policies
// are equal and the images match pixel for pixel (bit patterns, so a
// HashImage collision — or NaN pixels — can never alias two requests).
func (b *Batcher) dedupe(live []*batchRequest) ([]*batchRequest, map[*batchRequest][]*batchRequest) {
	var dups map[*batchRequest][]*batchRequest
	byHash := make(map[uint64][]*batchRequest, len(live))
	uniq := live[:0]
next:
	for _, req := range live {
		for _, cand := range byHash[req.hash] {
			if cand.policy == req.policy && coding.SameImage(cand.image, req.image) {
				if dups == nil {
					dups = map[*batchRequest][]*batchRequest{}
				}
				dups[cand] = append(dups[cand], req)
				continue next
			}
		}
		byHash[req.hash] = append(byHash[req.hash], req)
		uniq = append(uniq, req)
	}
	if deduped := len(live) - len(uniq); deduped > 0 && b.metrics != nil {
		b.metrics.ObserveDeduped(deduped)
	}
	return uniq, dups
}

// deliver sends one result to its request and every duplicate riding it.
// Each recipient's queue span is its own (enqueue → simStart, when the
// simulation that answers it began); duplicates share the
// representative's engine spans and are marked deduped. Batch seq counts
// as replied from its first delivery on (see markReplied).
func (b *Batcher) deliver(seq uint64, req *batchRequest, res batchResult, dups map[*batchRequest][]*batchRequest, simStart time.Time) {
	b.markReplied(seq)
	res.stages.Queue = simStart.Sub(req.enqueued)
	req.done <- res
	for _, d := range dups[req] {
		r := res
		r.stages.Queue = simStart.Sub(d.enqueued)
		r.deduped = true
		d.done <- r
	}
}
