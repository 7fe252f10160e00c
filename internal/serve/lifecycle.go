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
// eviction releases the replica pool and the image memory (the response
// cache) but archives the conversion and metrics, so warming is a
// pool rebuild (no re-convert) and every counter is continuous across
// the cycle.
//
// The table: Server.entries holds resident models, Server.archive the
// evicted ones, both under Server.mu — a name is in one map or neither,
// never both, so every transition is one critical section and every
// reader (resolve, /metrics, /v1/models) sees one consistent state.
package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// entry pairs a resident model with its request queue. The pair is
// installed and replaced as a unit under the server mutex; lastUse is
// the LRU clock for the resident bound and idle eviction.
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
// Model reports.
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
		if s.archive[name] == nil {
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
// the resolve loop back to re-observe. So does an archive that is gone
// by the time the warm reads it: a Register or Unregister got there
// first, and the resolve loop serves from (or 404s on) what it left.
func (s *Server) warm(name string, epoch uint64) (*entry, error) {
	s.mu.Lock()
	a := s.archive[name]
	s.mu.Unlock()
	if a == nil {
		return nil, nil
	}
	m, err := build(a.cfg, a.conv)
	if err != nil {
		return nil, err
	}
	e, err := s.installModelAt(m, epoch, true)
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
// table install, counter binding, batcher creation, and entry swap
// all happen under one critical section — the atomic (model, batcher)
// swap that closes the stale-weights window. The displaced batcher, if
// any, hands its queued requests to the new one outside the lock.
func (s *Server) installModel(m *Model) (*entry, error) {
	return s.installModelAt(m, 0, false)
}

// installModelAt is installModel with an optional lifecycle-epoch guard:
// with guard set, the install aborts (errStaleWarm) unless the name's
// epoch still equals epoch — i.e. no other install or removal has
// touched the name since the caller sampled it. Every successful install
// advances the epoch, so in-flight guarded installs for the name abort.
func (s *Server) installModelAt(m *Model, epoch uint64, guard bool) (*entry, error) {
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
	// The new model adopts the prior registration's (or archive's)
	// metrics first, so history is continuous and the batcher below
	// observes into the accumulator the model will actually expose.
	if old != nil {
		m.metrics = old.model.metrics
	} else if a := s.archive[name]; a != nil {
		m.metrics = a.metrics
	}
	delete(s.archive, name)
	met := m.Metrics()
	bc := BatcherConfig{
		Metrics:       met,
		Fair:          fair,
		MaxBatch:      s.cfg.MaxBatch,
		MaxDelay:      s.cfg.MaxDelay,
		QueueDepth:    s.cfg.QueueDepth,
		InjectLatency: s.cfg.InjectLatency,
	}
	// A fresh response cache, counting into the accumulator the model
	// just adopted.
	if s.cfg.ResponseCacheSize >= 0 {
		bc.Cache = NewResponseCache(s.cfg.ResponseCacheSize, DefaultResponseCacheTTL, &met.responseCache)
	}
	if s.cfg.Degrade {
		bc.Degrade = NewDegradeController()
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
		e := s.entries[name]
		if e == nil && s.archive[name] == nil {
			s.mu.Unlock()
			return errUnknownModel(name)
		}
		delete(s.entries, name)
		switch {
		case !evict:
			delete(s.archive, name)
		case e != nil:
			a := e.model.archived
			s.archive[name] = &a
		}
		// Advance the epoch so a warm claimed before this removal cannot
		// install its now-superseded restore afterwards.
		s.epochs[name]++
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

// autoscaleTick is how often housekeeping steps the autoscaled pools.
const autoscaleTick = 250 * time.Millisecond

// growPressure and shrinkPressure are the queue pressures above which
// autoscale widens a model's pool by one replica and below which it
// narrows it by one.
const (
	growPressure   = 0.5
	shrinkPressure = 0.05
)

// housekeep is the server's one background loop, stopped by Shutdown:
// it autoscales every autoscaleTick and, when Config.EvictIdle is set,
// evicts idle models every quarter of that window.
func (s *Server) housekeep() {
	defer close(s.houseDone)
	scale := time.NewTicker(autoscaleTick)
	defer scale.Stop()
	var evict <-chan time.Time
	if s.cfg.EvictIdle > 0 {
		t := time.NewTicker(max(s.cfg.EvictIdle/4, 10*time.Millisecond))
		defer t.Stop()
		evict = t.C
	}
	for {
		select {
		case <-s.houseStop:
			return
		case <-scale.C:
			s.autoscale()
		case <-evict:
			s.evictIdle()
		}
	}
}

// evictIdle evicts the models whose last Classify is older than
// Config.EvictIdle.
func (s *Server) evictIdle() {
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

// autoscale steps the pool of every resident model registered with
// headroom (MaxReplicas above Replicas) one replica toward its queue
// pressure (Batcher.Pressure): wider above growPressure, narrower below
// shrinkPressure, within [1, MaxReplicas]. One step per tick, not a
// proportional jump, keeps the controller stable against the pressure
// filter's own lag.
func (s *Server) autoscale() {
	var scaled []*entry
	s.mu.Lock()
	for _, e := range s.entries {
		if cfg := e.model.cfg; cfg.MaxReplicas > cfg.Replicas {
			scaled = append(scaled, e)
		}
	}
	s.mu.Unlock()
	for _, e := range scaled {
		pool := e.model.pool
		switch p, n := e.batcher.Pressure(), pool.Size(); {
		case p > growPressure && n < pool.Max():
			_, _ = pool.Resize(n + 1)
		case p < shrinkPressure && n > 1:
			_, _ = pool.Resize(n - 1)
		}
	}
}

// lifecycleCounts reports the server's resident/evicted/warming model
// counts (the /healthz and /metrics lifecycle gauges).
func (s *Server) lifecycleCounts() (resident, evicted, warming int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), len(s.archive), len(s.warming)
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

// statRows lists every known model, resident and evicted, sorted by
// name.
func (s *Server) statRows() []statRow {
	s.mu.Lock()
	rows := make([]statRow, 0, len(s.entries)+len(s.archive))
	for name, e := range s.entries {
		rows = append(rows, statRow{
			name: name, state: StateResident,
			met: e.model.Metrics(), pool: e.model.Pool(), batcher: e.batcher,
		})
	}
	for name, a := range s.archive {
		rows = append(rows, statRow{name: name, state: StateEvicted, met: a.metrics})
	}
	s.mu.Unlock()
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
		WriteError(w, status, err)
		return
	}
	state := "unregistered"
	if evict {
		state = StateEvicted
	}
	WriteJSON(w, http.StatusOK, map[string]string{"model": name, "state": state})
}
