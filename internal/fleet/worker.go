package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"burstsnn/internal/serve"
)

// ErrWorkerDown marks a shard whose worker cannot take requests at all —
// a crashed process, a refused connection, a killed in-process worker.
// The front tier treats it unlike an overload shed: the shard is marked
// dead (the supervisor respawns it) and routing moves on WITHOUT
// consuming a fallback hop, so a dead shard never eats a live shard's
// availability budget.
var ErrWorkerDown = errors.New("fleet: worker down")

// Worker is one shard's serving backend. The two implementations —
// InprocWorker (a serve.Server in this process) and ProcWorker (an
// `snnserve -worker` child process spoken to over a classify stream and
// HTTP) — satisfy the same contract, so the front tier, supervisor, and
// autoscaler never care where a shard runs.
type Worker interface {
	// Classify serves one request. Overload sheds surface as
	// serve.ErrOverloaded (the front tier may fall back to the next
	// shard); a dead backend surfaces as ErrWorkerDown.
	Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error)
	// Stats scrapes the shard's mergeable telemetry (see serve.ShardStats).
	Stats() (serve.ShardStats, error)
	// Models lists the shard's registered models.
	Models() ([]serve.Info, error)
	// RetryAfter is the shard's own drain-time projection for the model —
	// what a 429 on this shard's behalf must carry.
	RetryAfter(model string) time.Duration
	// Resize retargets the model's replica pool (see serve.Pool.Resize).
	Resize(model string, replicas int) (int, error)
	// Unregister removes a model from the shard: with evict=true the
	// shard archives the conversion and warms the model back in on the
	// next request (see serve.Server.Evict); with evict=false the name is
	// gone for good. Queued work drains either way.
	Unregister(model string, evict bool) error
	// Healthy reports whether the backend is serving (the supervisor's
	// eviction signal).
	Healthy() bool
	// Close shuts the backend down, draining in-flight work.
	Close() error
}

// InprocWorker runs a shard as a serve.Server inside this process — the
// zero-IPC fleet mode (goroutine pools behind the same Worker interface
// the process workers implement).
type InprocWorker struct {
	srv    *serve.Server
	killed atomic.Bool
}

// NewInprocWorker wraps an already-configured server (models registered).
func NewInprocWorker(srv *serve.Server) *InprocWorker {
	return &InprocWorker{srv: srv}
}

// Server exposes the wrapped server (tests reach through it to inspect
// per-shard cache state).
func (w *InprocWorker) Server() *serve.Server { return w.srv }

// Kill simulates a worker crash: the worker stops answering (every
// Classify fails ErrWorkerDown, Healthy goes false) without draining —
// exactly what the supervisor must detect and repair. Test hook.
func (w *InprocWorker) Kill() { w.killed.Store(true) }

func (w *InprocWorker) Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	if w.killed.Load() {
		return serve.ClassifyResult{}, ErrWorkerDown
	}
	res, err := w.srv.Classify(ctx, req)
	if err != nil && errors.Is(err, serve.ErrClosed) {
		return serve.ClassifyResult{}, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	return res, err
}

func (w *InprocWorker) Stats() (serve.ShardStats, error) {
	if w.killed.Load() {
		return serve.ShardStats{}, ErrWorkerDown
	}
	return w.srv.ShardStats(), nil
}

func (w *InprocWorker) Models() ([]serve.Info, error) {
	if w.killed.Load() {
		return nil, ErrWorkerDown
	}
	return w.srv.Models(), nil
}

func (w *InprocWorker) Unregister(model string, evict bool) error {
	if w.killed.Load() {
		return ErrWorkerDown
	}
	if evict {
		return w.srv.Evict(model)
	}
	return w.srv.Unregister(model)
}

func (w *InprocWorker) RetryAfter(model string) time.Duration {
	return w.srv.RetryAfter(model)
}

func (w *InprocWorker) Resize(model string, replicas int) (int, error) {
	if w.killed.Load() {
		return 0, ErrWorkerDown
	}
	return w.srv.ResizePool(model, replicas)
}

func (w *InprocWorker) Healthy() bool { return !w.killed.Load() }

func (w *InprocWorker) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return w.srv.Shutdown(ctx)
}
