package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/obs"
)

// ErrClosed is returned by Submit after the batcher has been closed.
var ErrClosed = errors.New("serve: batcher closed")

// ErrOverloaded is what Submit's sheds match when the admission plane
// refuses a request instead of queueing it: the admission queue is full,
// or the projected queue wait already exceeds the request's deadline.
// Each shed is a *ShedError; the server maps it to HTTP 429 with its
// Retry-After.
var ErrOverloaded = errors.New("serve: overloaded")

// ShedError is an overload shed: it matches ErrOverloaded and carries the
// shedding queue's projected drain time, which its 429 answers with as
// Retry-After.
type ShedError struct {
	// Reason says why the request was shed; empty for a full queue.
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	if e.Reason == "" {
		return ErrOverloaded.Error()
	}
	return ErrOverloaded.Error() + ": " + e.Reason
}

// Is makes every shed match errors.Is(err, ErrOverloaded).
func (e *ShedError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfterSeconds is the Retry-After header value of a 429 for err: the
// shed's own drain projection, rounded up to whole seconds and floored at
// one.
func RetryAfterSeconds(err error) int {
	var shed *ShedError
	if errors.As(err, &shed) {
		return max(int(math.Ceil(shed.RetryAfter.Seconds())), 1)
	}
	return 1
}

// drainEWMAWeight smooths the measured per-request drain time that
// backs projected-wait shedding and Retry-After hints, and the queue
// pressure filter (both fold bursty per-batch samples).
const drainEWMAWeight = 0.25

// Batcher is the microbatching request queue in front of a replica pool.
// Requests are grouped into batches of up to MaxBatch. A partial batch
// waits for company inside an adaptive forming window: MaxDelay is its
// upper bound, and it decays to zero for traffic that waiting does not
// gather (see form.go). Each batch checks out one replica and runs its
// requests back to back on the sequential engine in arrival order, so a
// request's outcome never depends on its batchmates.
//
// In front of the queue sits the overload plane: an optional cross-batch
// response cache answers replayed (image, policy) pairs without a queue
// slot or replica; admission sheds (ErrOverloaded) instead of blocking
// when the queue is full or the projected wait exceeds the request's
// deadline; requests whose deadline expired while queued are shed at
// dispatch time, before they join a batch; and an optional degrade
// controller tightens the exit policy of every admitted request while
// queue pressure is high. The dispatcher checks out each batch's replica
// before the batch leaves it, so concurrent batch execution is bounded
// to the pool's live width and the queue — not a pile of goroutines
// waiting for replicas — is where backlog accumulates and gets measured.
type Batcher struct {
	pool     *Pool
	metrics  *Metrics           // forming counters; may be nil
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
	// sampled at every admission. The degrade controller's hysteresis runs
	// on it, and so does the server's pool autoscaler.
	// pressureAt is the filter's last-fold time, driving idle decay (see
	// decayPressureLocked).
	pressureMu sync.Mutex
	pressure   float64
	pressureAt time.Time

	// formWindowNs is the dispatcher's live forming window (a gauge: the
	// dispatcher stores, scrapes load). replied is the sequence number of
	// the newest batch that has started replying — the dispatcher's
	// near-miss test reads it (see form.go).
	formWindowNs atomic.Int64
	replied      atomic.Uint64

	// closeCtx is canceled by Close: batches still waiting for a replica
	// or a fair slot abort immediately (ErrClosed) while batches already
	// running drain normally.
	closeCtx    context.Context
	closeCancel context.CancelFunc

	done chan struct{} // dispatcher drained and all batches finished
}

// BatcherConfig carries NewBatcher's optional collaborators and tuning;
// the zero value is a plain 1-request-at-a-time batcher.
type BatcherConfig struct {
	Metrics  *Metrics           // forming counters; nil disables
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

	// InjectLatency is an overload-test hook: every batch holds its
	// replica this much longer.
	InjectLatency time.Duration
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
	stages obs.StageTimes
	err    error
}

// SubmitFlags reports how a request was served, alongside its outcome.
type SubmitFlags struct {
	Cached   bool // answered by the response cache; never queued or simulated
	Degraded bool // ran under the degraded-mode tightened policy
}

// NewBatcher starts the dispatcher. See BatcherConfig for the knobs and
// collaborators; the batcher owns none of them (the server shares
// Metrics/Cache with its snapshot plane).
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
		cache:         cfg.Cache,
		degrade:       cfg.Degrade,
		fair:          cfg.Fair,
		maxBatch:      maxBatch,
		maxDelay:      cfg.MaxDelay,
		injectLatency: cfg.InjectLatency,
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

	pressure := b.observePressure()
	if b.degrade != nil {
		// Pressure is sampled at every admission — including ones that end
		// as cache hits or sheds — so the controller sees recovery too.
		b.degrade.Observe(pressure)
		if b.degrade.Degraded() {
			p = b.degrade.Tighten(p)
			flags.Degraded = true
		}
	}

	// Hash once per request: the cache lookup and record both key on
	// this, so no later stage rehashes the pixels. The lookup uses the
	// (possibly tightened) effective policy — a degraded request can only
	// be answered by a degraded-policy entry.
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
				b.shed(fmt.Sprintf("projected queue wait %v exceeds request deadline", wait))
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
		return Outcome{}, obs.StageTimes{}, flags, b.shed("")
	}
	select {
	case res := <-req.done:
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

// DegradeState reports the degraded-mode state machine's mode ("off"
// when no controller is attached) and the queue pressure it steers by
// (Pressure, in every mode).
func (b *Batcher) DegradeState() (mode string, pressure float64) {
	mode = "off"
	if b.degrade != nil {
		mode = b.degrade.Mode()
	}
	return mode, b.Pressure()
}

// pressureIdleTick is the synthetic observation period for the pressure
// EWMA while no admissions arrive. The filter is admission-driven, so
// without it a saturated reading would pin forever once traffic stops —
// an idle queue is an empty queue, and the autoscaler's shrink path must
// see that drain.
const pressureIdleTick = 100 * time.Millisecond

// observePressure folds the instantaneous queue fill into the always-on
// pressure EWMA (same smoothing weight as the drain filter) and returns
// the new value.
func (b *Batcher) observePressure() float64 {
	fill := float64(len(b.queue)) / float64(cap(b.queue))
	now := time.Now()
	b.pressureMu.Lock()
	defer b.pressureMu.Unlock()
	b.decayPressureLocked(now)
	b.pressure += drainEWMAWeight * (fill - b.pressure)
	b.pressureAt = now
	return b.pressure
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

// Pressure reports the smoothed queue-fill fraction in [0,1]: the degrade
// controller's input and the server autoscaler's (Server.autoscale).
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

// shed is the error a request this batcher sheds fails with.
func (b *Batcher) shed(reason string) error {
	return &ShedError{Reason: reason, RetryAfter: b.RetryAfter()}
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

// Close stops accepting requests and shuts down: batches already running
// drain to completion, while queued requests — and formed batches still
// waiting for a replica or a fair slot — fail fast with ErrClosed
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
		req.done <- batchResult{err: b.shed("")}
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

// run executes one batch on rep, the replica the dispatcher checked out
// for it, and returns the replica to the pool. With a FairSlot the batch
// then waits for its cross-model turn, on closeCtx — never a request
// context, since a canceled request must not fail its batchmates — so a
// batch still waiting when Close fires follows the handoff chain instead
// of executing.
//
// The live requests run back to back on the replica's sequential
// engine, in arrival order. Each one's outcome goes to the response
// cache, which answers repeats of it at admission.
func (b *Batcher) run(rep *Replica, reqs []*batchRequest, form time.Duration, seq uint64) {
	defer b.pool.Put(rep)
	if b.fair != nil {
		if err := b.fair.Acquire(b.closeCtx); err != nil {
			for _, req := range reqs {
				b.forward(req)
			}
			return
		}
		defer b.fair.Release()
	}
	// The batch holds a replica and starts executing. Each lane's queue
	// span runs on from here to its own simulation start, behind its
	// batchmates.
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
	// Lane i waits out i simulations, so its queue span ends at its own
	// start, and a lane whose caller gave up during that wait is answered
	// as the batch-start check answers it, without a simulation. The
	// first lane starts where that check left it. Batch seq counts as
	// replied from its first delivery on (see markReplied).
	for i, req := range live {
		if i > 0 {
			if err := req.ctx.Err(); err != nil {
				req.done <- batchResult{err: err}
				continue
			}
		}
		start := time.Now()
		out, times := ClassifyStaged(rep.Net, req.image, req.policy)
		times.Form = form
		times.Queue = start.Sub(req.enqueued)
		if b.cache != nil {
			b.cache.Record(req.hash, req.image, req.policy, out)
		}
		b.markReplied(seq)
		req.done <- batchResult{out: out, stages: times}
	}
}
