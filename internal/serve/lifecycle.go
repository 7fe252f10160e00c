// Model lifecycle: the server-side state machine behind registration,
// hot swap, unregistration, eviction, and warm-on-demand.
//
//	        Register                    Evict / idle / LRU
//	(none) ─────────▶ resident ──────────────────────▶ evicted
//	                    ▲   │ Register (hot swap:            │
//	                    │   │ atomic entry replace +         │
//	                    │   ▼ queue handoff)                 │
//	                    └── resident ◀──────────────────────┘
//	                            warm (singleflight restore
//	                             from the cached conversion)
//
//	resident ──Unregister──▶ (none)      evicted ──Unregister──▶ (none)
//
// Invariants: Classify resolves exactly one entry — an atomically
// installed (model, batcher) pair — per attempt, so no request can mix
// two registrations' state; every transition out of resident drains the
// queue (graceful execute on evict/unregister, handoff re-submit on hot
// swap), so lifecycle transitions cost clients latency, never errors;
// eviction releases the replica pool and the image memory (interner and
// memo views) but archives the conversion and metrics, so warming is a
// pool rebuild (no re-convert) and every counter is continuous across
// the cycle.
package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"burstsnn/internal/kernels"
)

// entry pairs a resident model with its request queue. The pair is
// installed and replaced as a unit under the server mutex; lastUse is
// the LRU clock for the resident bound and idle evictor.
type entry struct {
	model   *Model
	batcher *Batcher
	lastUse atomic.Int64 // UnixNano of the last Classify touch
}

func (e *entry) touch() { e.lastUse.Store(time.Now().UnixNano()) }

// warmOp is one singleflight warm of an evicted model: the leader's
// goroutine restores and installs, every waiter (leader included)
// selects on done against its own context.
type warmOp struct {
	done chan struct{}
	e    *entry
	err  error
}

// errStaleWarm aborts a warm install whose name saw another install or a
// removal since the warm was claimed: the restored model reflects a
// superseded archive entry and must not clobber the current state. Never
// surfaces to callers — the resolve loop re-observes and retries.
var errStaleWarm = errors.New("serve: warm superseded by a concurrent install or removal")

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// resolveEntry returns the live entry for name, transparently warming an
// evicted model back in (the caller blocks behind the singleflight
// restore, bounded by its ctx). Unknown names fail with the same error
// Registry.Get reports.
func (s *Server) resolveEntry(ctx context.Context, name string) (*entry, error) {
	for {
		s.mu.Lock()
		if e := s.entries[name]; e != nil {
			s.mu.Unlock()
			return e, nil
		}
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if !s.reg.Archived(name) {
			s.mu.Unlock()
			return nil, errUnknownModel(name)
		}
		op := s.warming[name]
		if op == nil {
			op = &warmOp{done: make(chan struct{})}
			s.warming[name] = op
			// The restore runs detached from the claiming request: the
			// leader's deadline must not strand followers mid-warm, and the
			// leader itself waits below exactly like a follower, so an
			// expired context returns promptly while the warm completes in
			// the background. The epoch is sampled here, under the same
			// critical section that observed "no entry, archived".
			go s.runWarm(name, op, s.epochs[name])
		}
		s.mu.Unlock()
		select {
		case <-op.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if op.err != nil {
			return nil, op.err
		}
		if op.e != nil {
			return op.e, nil
		}
		// The warm raced a removal or a concurrent install; loop and
		// re-resolve from scratch.
	}
}

// runWarm is the warm leader's body. The warmOp is resolved — deleted
// from s.warming and its done channel closed — BEFORE the resident bound
// is enforced: enforceResidentBound can block in remove() on some other
// name's in-flight warm, and if this op were still open that warm's own
// bound enforcement could symmetrically block on us (the cross-warm
// deadlock under MaxResidentModels).
func (s *Server) runWarm(name string, op *warmOp, epoch uint64) {
	op.e, op.err = s.warm(name, epoch)
	s.mu.Lock()
	delete(s.warming, name)
	s.mu.Unlock()
	close(op.done)
	if op.err == nil && op.e != nil {
		s.enforceResidentBound(name)
	}
}

// warm restores an evicted model from its archived conversion and makes
// it resident again. The restore skips conversion entirely — only the
// replica pool is rebuilt — and the installed model re-adopts the
// archived metrics, so counters are continuous across the cycle. The
// install is epoch-guarded: if any other install or removal touched the
// name between the leader claiming the warm and the restore finishing
// (e.g. an explicit Register with fresh weights), the restored model is
// dropped instead of clobbering the newer state, and (nil, nil) sends
// the resolve loop back to re-observe.
func (s *Server) warm(name string, epoch uint64) (*entry, error) {
	sched, err := s.buildScheduler()
	if err != nil {
		return nil, err
	}
	m, err := s.reg.Restore(name)
	if err != nil {
		return nil, err
	}
	e, err := s.installModelAt(m, sched, epoch, true)
	if errors.Is(err, errStaleWarm) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	e.model.Metrics().ObserveWarm()
	return e, nil
}

// installModel makes a prepared (or restored) model resident. The
// registry install, counter binding, batcher creation, and entry swap
// all happen under one critical section — the atomic (model, batcher)
// swap that closes the stale-weights window. The displaced batcher, if
// any, hands its queued requests to the new one outside the lock.
func (s *Server) installModel(m *Model, sched *StaticSched) (*entry, error) {
	return s.installModelAt(m, sched, 0, false)
}

// installModelAt is installModel with an optional lifecycle-epoch guard:
// with guard set, the install aborts (errStaleWarm) unless the name's
// epoch still equals epoch — i.e. no other install or removal has
// touched the name since the caller sampled it. Every successful install
// advances the epoch, so in-flight guarded installs for the name abort.
func (s *Server) installModelAt(m *Model, sched *StaticSched, epoch uint64, guard bool) (*entry, error) {
	name := m.Config().Name
	var fair *FairSlot
	if s.fair != nil {
		fair = s.fair.Slot(name, s.cfg.ModelWeights[name])
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if guard && s.epochs[name] != epoch {
		s.mu.Unlock()
		return nil, errStaleWarm
	}
	s.epochs[name]++
	old := s.entries[name]
	// Install first: the new model adopts the prior registration's (or
	// archive's) metrics here, so the batcher below observes into the
	// accumulator the model will actually expose.
	s.reg.Install(m)
	met := m.Metrics()
	met.SetBatchKernel(kernels.Kind())
	met.SetScheduler(sched.Name())
	bc := BatcherConfig{
		Metrics:       met,
		Sched:         sched,
		Fair:          fair,
		MaxBatch:      s.cfg.MaxBatch,
		MaxDelay:      s.cfg.MaxDelay,
		QueueDepth:    s.cfg.QueueDepth,
		InjectLatency: s.cfg.InjectLatency,
	}
	// The other two views over the model's interner, counting into the
	// accumulator the model just adopted.
	if s.cfg.ExitHistorySize >= 0 {
		bc.History = NewExitHistory(s.cfg.ExitHistorySize, m.px)
		bc.History.CountInto(&met.exitHistory)
	}
	if s.cfg.ResponseCacheSize >= 0 {
		bc.Cache = NewResponseCache(s.cfg.ResponseCacheSize, s.cfg.ResponseCacheTTL, m.px)
		bc.Cache.CountInto(&met.responseCache)
	}
	if s.cfg.Degrade {
		bc.Degrade = NewDegradeController(0, 0)
	}
	e := &entry{model: m, batcher: NewBatcher(m.Pool(), bc)}
	e.touch()
	s.entries[name] = e
	s.mu.Unlock()
	if old != nil {
		// Hot swap drain: everything queued on the old registration
		// re-submits to the new one — clients see latency, not errors.
		old.batcher.CloseHandoff(e.batcher)
	}
	return e, nil
}

// enforceResidentBound evicts least-recently-used models until the
// resident count fits Config.MaxResidentModels. keep (the name just
// installed) is never the victim, so a warm cannot immediately evict
// itself into a livelock.
func (s *Server) enforceResidentBound(keep string) {
	limit := s.cfg.MaxResidentModels
	if limit <= 0 {
		return
	}
	for {
		victim := ""
		var oldest int64
		s.mu.Lock()
		if len(s.entries) > limit {
			for name, e := range s.entries {
				if name == keep {
					continue
				}
				if t := e.lastUse.Load(); victim == "" || t < oldest {
					victim, oldest = name, t
				}
			}
		}
		s.mu.Unlock()
		if victim == "" {
			return
		}
		_ = s.Evict(victim)
	}
}

// Unregister removes a model entirely: admission stops, queued requests
// finish on the still-live pool, then the pool, the registration, and
// any archived conversion are released. The name 404s afterwards.
func (s *Server) Unregister(name string) error { return s.remove(name, false) }

// Evict unregisters but archives: the cached conversion and metrics are
// retained (and stay visible in /metrics as state "evicted"), and the
// next Classify for the name warms the model back in.
func (s *Server) Evict(name string) error { return s.remove(name, true) }

func (s *Server) remove(name string, evict bool) error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if op := s.warming[name]; op != nil {
			// A warm for this name is mid-install: wait for it so the
			// removal drains the entry it is about to create instead of
			// racing it back to residency. Safe to block on — warmOps
			// resolve before any eviction they trigger (see runWarm), so
			// no warm's completion can transitively wait on this remove.
			s.mu.Unlock()
			<-op.done
			continue
		}
		if _, err := s.reg.Unregister(name, evict); err != nil {
			s.mu.Unlock()
			return err
		}
		// Advance the epoch so a warm claimed before this removal cannot
		// install its now-superseded restore afterwards.
		s.epochs[name]++
		e := s.entries[name]
		delete(s.entries, name)
		s.mu.Unlock()
		if e != nil {
			// Graceful drain: queued work executes on the pool before the
			// last reference to it is dropped.
			e.batcher.CloseGraceful()
			if evict {
				e.model.Metrics().ObserveEviction()
			}
		}
		if s.fair != nil && !evict {
			// Fair-share state survives eviction (the model will be back)
			// but not full unregistration. Removed only after the drain
			// above — draining batches still acquire slots.
			s.fair.Remove(name)
		}
		return nil
	}
}

// evictIdleLoop is the idle evictor: every quarter of Config.EvictIdle
// it evicts models whose last Classify is older than the window.
func (s *Server) evictIdleLoop() {
	defer close(s.evictDone)
	tick := s.cfg.EvictIdle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.EvictIdle).UnixNano()
		var victims []string
		s.mu.Lock()
		for name, e := range s.entries {
			if e.lastUse.Load() < cutoff {
				victims = append(victims, name)
			}
		}
		s.mu.Unlock()
		for _, name := range victims {
			_ = s.Evict(name)
		}
	}
}

// lifecycleCounts reports the server's resident/evicted/warming model
// counts (the /healthz and /metrics lifecycle gauges).
func (s *Server) lifecycleCounts() (resident, evicted, warming int) {
	s.mu.Lock()
	resident = len(s.entries)
	warming = len(s.warming)
	s.mu.Unlock()
	evicted = len(s.reg.ArchivedStats())
	return resident, evicted, warming
}

// statRow is one exposition row: a known model's metrics plus whatever
// live state it has. Evicted models carry retained metrics with a nil
// pool and batcher.
type statRow struct {
	name    string
	state   string
	met     *Metrics
	pool    *Pool    // nil when evicted
	batcher *Batcher // nil when evicted
}

// statRows lists every known model, resident entries first-hand and
// evicted ones from the registry archive, sorted by name. A model caught
// mid-eviction may appear with either state; it never appears twice.
func (s *Server) statRows() []statRow {
	s.mu.Lock()
	rows := make([]statRow, 0, len(s.entries))
	seen := make(map[string]bool, len(s.entries))
	for name, e := range s.entries {
		rows = append(rows, statRow{
			name: name, state: StateResident,
			met: e.model.Metrics(), pool: e.model.Pool(), batcher: e.batcher,
		})
		seen[name] = true
	}
	s.mu.Unlock()
	for name, met := range s.reg.ArchivedStats() {
		if !seen[name] {
			rows = append(rows, statRow{name: name, state: StateEvicted, met: met})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// fillSnapshot materializes one row's Snapshot with the live gauges
// (queue, pool, degrade, fair share) only a scrape-time reader can fill.
func (s *Server) fillSnapshot(row statRow) Snapshot {
	snap := row.met.Snapshot()
	snap.State = row.state
	snap.DegradeMode = "off"
	if row.batcher != nil {
		snap.QueueDepth = row.batcher.QueueDepth()
		snap.FormWindowMs = float64(row.batcher.FormWindow()) / float64(time.Millisecond)
		snap.DegradeMode, snap.QueuePressure = row.batcher.DegradeState()
	}
	if row.pool != nil {
		snap.PoolInFlight = row.pool.InFlight()
		snap.PoolSize = row.pool.Size()
	}
	if s.fair != nil {
		if fs, ok := s.fair.Stats(row.name); ok {
			snap.FairWeight = fs.Weight
			snap.FairShare = fs.Share
			snap.FairGrants = fs.Grants
			snap.FairWaiting = fs.Waiting
		}
	}
	return snap
}

// handleUnregister serves DELETE /v1/models/{name}: mode=evict archives
// (the default removes the model for good). 404 strictly for unknown
// names; shutdown and any other failure report 503 — the server is
// declining, not denying the model exists.
func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	evict := r.URL.Query().Get("mode") == "evict"
	var err error
	if evict {
		err = s.Evict(name)
	} else {
		err = s.Unregister(name)
	}
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrUnknownModel) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	state := "unregistered"
	if evict {
		state = StateEvicted
	}
	writeJSON(w, http.StatusOK, map[string]string{"model": name, "state": state})
}
