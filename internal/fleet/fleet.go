package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/serve"
)

// Config tunes the fleet front tier.
type Config struct {
	// Shards is the worker count (required, >= 1).
	Shards int
	// FallbackHops bounds how many additional shards a request may be
	// offered after its owner sheds it (bounded-load fallback). Default
	// 1; negative pins requests to their owner (shed = 429). Dead shards
	// never consume a hop.
	FallbackHops int
	// HealthInterval is the supervisor's probe period (default 250ms;
	// negative disables supervision — dead shards stay dead).
	HealthInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards < 1 {
		return c, fmt.Errorf("fleet: need at least 1 shard, got %d", c.Shards)
	}
	if c.FallbackHops == 0 {
		c.FallbackHops = 1
	}
	if c.FallbackHops < 0 {
		c.FallbackHops = 0
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	return c, nil
}

// WorkerFactory builds (or rebuilds, after an eviction) the worker for
// one shard index. It must return a ready worker: models registered, and
// for process workers the /healthz probe already passing.
type WorkerFactory func(shard int) (Worker, error)

// shardCounters is one shard's routing accounting, all atomics (the
// request path never takes the fleet lock for counting).
type shardCounters struct {
	dispatched atomic.Int64 // requests this shard answered (success or request-level error)
	fallbacks  atomic.Int64 // requests that arrived here after another shard shed them
	sheds      atomic.Int64 // requests this shard shed (ErrOverloaded)
	deadSkips  atomic.Int64 // requests routed past this shard while it was down
	respawns   atomic.Int64 // times the supervisor rebuilt this shard's worker
}

// Fleet is the front tier: consistent-hash routing with bounded-load
// fallback over a supervised set of shard workers. See the package
// comment for the routing contract.
type Fleet struct {
	cfg     Config
	ring    *Ring
	factory WorkerFactory
	start   time.Time

	mu      sync.RWMutex
	workers []Worker
	dead    []bool

	counters []shardCounters

	stopOnce sync.Once
	stop     chan struct{}
	loops    sync.WaitGroup
}

// New builds the ring, spawns one worker per shard via factory, and
// starts the supervisor. On any spawn error the already-spawned workers
// are closed and the error returned.
func New(cfg Config, factory WorkerFactory) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Shards, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      cfg,
		ring:     ring,
		factory:  factory,
		start:    time.Now(),
		workers:  make([]Worker, cfg.Shards),
		dead:     make([]bool, cfg.Shards),
		counters: make([]shardCounters, cfg.Shards),
		stop:     make(chan struct{}),
	}
	for s := 0; s < cfg.Shards; s++ {
		w, err := factory(s)
		if err != nil {
			for _, spawned := range f.workers[:s] {
				_ = spawned.Close()
			}
			return nil, fmt.Errorf("fleet: spawn shard %d: %w", s, err)
		}
		f.workers[s] = w
	}
	if cfg.HealthInterval > 0 {
		f.loops.Add(1)
		go f.supervise()
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return f.cfg.Shards }

// Worker returns the live worker for a shard (nil while the shard is
// down awaiting respawn).
func (f *Fleet) Worker(shard int) Worker {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.dead[shard] {
		return nil
	}
	return f.workers[shard]
}

// Owner returns the shard owning an image hash (coding.HashImage).
func (f *Fleet) Owner(hash uint64) int { return f.ring.Owner(hash) }

func (f *Fleet) markDead(shard int) {
	f.mu.Lock()
	f.dead[shard] = true
	f.mu.Unlock()
}

// Classify routes one request: the image-hash owner first, then — when a
// shard sheds with serve.ErrOverloaded — up to FallbackHops further
// shards clockwise on the ring. Dead shards are skipped without
// consuming a hop (and a worker that dies mid-request is marked dead and
// skipped the same way, so its in-flight requests finish on the next
// live shard instead of dropping). If every tried shard shed, the first
// one's shed error is returned: the owner's while it is live, the shard a
// retry re-hashes to. Its Retry-After projection, not a fleet average, is
// the honest hint.
func (f *Fleet) Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	seq := f.ring.Sequence(coding.HashImage(req.Image), f.cfg.Shards)
	tries, maxTries := 0, 1+f.cfg.FallbackHops
	var firstShed error
	for _, shard := range seq {
		if tries >= maxTries {
			break
		}
		if err := ctx.Err(); err != nil {
			return serve.ClassifyResult{}, err
		}
		w := f.Worker(shard)
		if w == nil {
			f.counters[shard].deadSkips.Add(1)
			continue
		}
		if tries > 0 {
			f.counters[shard].fallbacks.Add(1)
		}
		res, err := w.Classify(ctx, req)
		switch {
		case err == nil:
			f.counters[shard].dispatched.Add(1)
			return res, nil
		case errors.Is(err, serve.ErrOverloaded):
			f.counters[shard].sheds.Add(1)
			if firstShed == nil {
				firstShed = err
			}
			tries++
		case errors.Is(err, ErrWorkerDown):
			f.markDead(shard)
			f.counters[shard].deadSkips.Add(1)
			// No hop consumed: a dead shard must not eat the fallback
			// budget meant for overload.
		default:
			// A request-level failure (bad input, unknown model, timeout
			// inside execution): the shard did take the request.
			f.counters[shard].dispatched.Add(1)
			return res, err
		}
	}
	if firstShed != nil {
		return serve.ClassifyResult{}, firstShed
	}
	return serve.ClassifyResult{}, fmt.Errorf("%w: no live shard for request", ErrWorkerDown)
}

// Models lists the registered models from the first live shard (every
// shard registers the same set).
func (f *Fleet) Models() ([]serve.Info, error) {
	for s := 0; s < f.cfg.Shards; s++ {
		if w := f.Worker(s); w != nil {
			return w.Models()
		}
	}
	return nil, fmt.Errorf("%w: no live shard", ErrWorkerDown)
}

// Unregister broadcasts a model removal (evict=true archives for
// warm-on-demand) to every live shard. Dead shards are skipped — their
// respawn factory defines what they serve — and the first per-shard
// error is joined per shard so a partial broadcast is visible.
func (f *Fleet) Unregister(model string, evict bool) error {
	var errs []error
	tried := false
	for s := 0; s < f.cfg.Shards; s++ {
		w := f.Worker(s)
		if w == nil {
			continue
		}
		tried = true
		if err := w.Unregister(model, evict); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	if !tried {
		return fmt.Errorf("%w: no live shard", ErrWorkerDown)
	}
	return errors.Join(errs...)
}

// supervise probes every shard each HealthInterval and rebuilds dead or
// unhealthy workers through the factory. A failed rebuild leaves the
// shard dead and retries next tick.
func (f *Fleet) supervise() {
	defer f.loops.Done()
	ticker := time.NewTicker(f.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
		for s := 0; s < f.cfg.Shards; s++ {
			f.mu.RLock()
			w, dead := f.workers[s], f.dead[s]
			f.mu.RUnlock()
			if !dead && w != nil && w.Healthy() {
				continue
			}
			if !dead {
				// Health probe caught it before any request did.
				f.markDead(s)
			}
			nw, err := f.factory(s)
			if err != nil {
				slog.Warn("fleet: shard respawn failed", "shard", s, "error", err)
				continue
			}
			f.mu.Lock()
			old := f.workers[s]
			f.workers[s] = nw
			f.dead[s] = false
			f.mu.Unlock()
			f.counters[s].respawns.Add(1)
			slog.Info("fleet: shard respawned", "shard", s)
			if old != nil {
				// Drain the evicted worker off the probe loop; its
				// in-flight requests (if the process is merely wedged, not
				// gone) get their graceful window.
				go func() { _ = old.Close() }()
			}
		}
	}
}

// Close stops the supervisor, then closes every worker (draining their
// queues). Idempotent.
func (f *Fleet) Close() error {
	var errs []error
	f.stopOnce.Do(func() {
		close(f.stop)
		f.loops.Wait()
		f.mu.Lock()
		workers := append([]Worker(nil), f.workers...)
		f.mu.Unlock()
		for s, w := range workers {
			if w == nil {
				continue
			}
			if err := w.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
			}
		}
	})
	return errors.Join(errs...)
}
