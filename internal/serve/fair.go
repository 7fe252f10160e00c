package serve

import (
	"context"
	"sync"
)

// FairDispatcher allocates a fixed number of execution slots (replica
// headroom) across models in weighted start-time-fair order, so one
// saturated model cannot starve the others. Each batcher acquires a slot
// before checking out a replica; when demand exceeds capacity, waiting
// models are granted slots in order of virtual start time — a model's
// virtual clock advances 1/weight per grant, so over any contended
// interval grants divide proportionally to weight, and a model that was
// idle re-enters at the current virtual time (it gets prompt service,
// not unbounded banked credit). Ties break on the model name, keeping
// grant order deterministic.
type FairDispatcher struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	vnow     float64
	models   map[string]*fairModel
}

type fairModel struct {
	name     string
	weight   float64
	finish   float64 // virtual finish tag of the last grant
	inflight int     // slots currently held
	grants   int64   // total slots ever granted
	waiters  []*fairWaiter
}

type fairWaiter struct {
	ready   chan struct{}
	granted bool
}

// FairSlot is a model's handle into the dispatcher. Handles stay valid
// across Remove — releases through an old handle keep the shared
// accounting correct even while the model is being replaced or evicted.
type FairSlot struct {
	d  *FairDispatcher
	fm *fairModel
}

// NewFairDispatcher returns a dispatcher with the given slot capacity
// (clamped to at least 1).
func NewFairDispatcher(capacity int) *FairDispatcher {
	if capacity < 1 {
		capacity = 1
	}
	return &FairDispatcher{capacity: capacity, models: map[string]*fairModel{}}
}

// Slot registers (or re-weights) a model and returns its handle. Weights
// at or below zero are treated as 1. Re-registering a name returns a
// handle onto the same shared accounting, so a hot swap never resets a
// model's fair-share position.
func (d *FairDispatcher) Slot(name string, weight float64) *FairSlot {
	if weight <= 0 {
		weight = 1
	}
	d.mu.Lock()
	fm := d.models[name]
	if fm == nil {
		fm = &fairModel{name: name}
		d.models[name] = fm
	}
	fm.weight = weight
	d.mu.Unlock()
	return &FairSlot{d: d, fm: fm}
}

// Remove forgets a model's fair-share state. Outstanding slots held
// through old handles still release correctly; pending waiters are
// failed so nothing blocks on a model that will never be granted again.
func (d *FairDispatcher) Remove(name string) {
	d.mu.Lock()
	fm := d.models[name]
	var orphans []*fairWaiter
	if fm != nil {
		orphans = fm.waiters
		fm.waiters = nil
		delete(d.models, name)
	}
	d.mu.Unlock()
	for _, w := range orphans {
		close(w.ready)
	}
}

// Acquire blocks until a slot is granted or ctx is done. A granted slot
// MUST be released. If the grant raced a ctx cancellation, Acquire still
// returns nil and the caller proceeds (its own ctx checks will fail fast
// downstream, and Release keeps the books straight).
func (s *FairSlot) Acquire(ctx context.Context) error {
	d := s.d
	w := &fairWaiter{ready: make(chan struct{})}
	d.mu.Lock()
	s.fm.waiters = append(s.fm.waiters, w)
	d.pump()
	d.mu.Unlock()
	select {
	case <-w.ready:
		if !s.acquired(w) {
			// Closed by Remove without a grant: the model is gone;
			// surface as a cancellation-style failure.
			return context.Canceled
		}
		return nil
	case <-ctx.Done():
		d.mu.Lock()
		if w.granted {
			d.mu.Unlock()
			return nil
		}
		for i, x := range s.fm.waiters {
			if x == w {
				s.fm.waiters = append(s.fm.waiters[:i], s.fm.waiters[i+1:]...)
				break
			}
		}
		d.mu.Unlock()
		return ctx.Err()
	}
}

func (s *FairSlot) acquired(w *fairWaiter) bool {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	return w.granted
}

// Release returns a slot and grants it to the next waiter in fair order.
func (s *FairSlot) Release() {
	d := s.d
	d.mu.Lock()
	s.fm.inflight--
	d.inUse--
	d.pump()
	d.mu.Unlock()
}

// pump grants free slots to waiting models in start-time-fair order.
// Caller holds d.mu.
func (d *FairDispatcher) pump() {
	for d.inUse < d.capacity {
		var best *fairModel
		var bestStart float64
		for _, fm := range d.models {
			if len(fm.waiters) == 0 {
				continue
			}
			start := fm.finish
			if start < d.vnow {
				start = d.vnow
			}
			if best == nil || start < bestStart || (start == bestStart && fm.name < best.name) {
				best, bestStart = fm, start
			}
		}
		if best == nil {
			return
		}
		w := best.waiters[0]
		best.waiters = best.waiters[1:]
		d.vnow = bestStart
		best.finish = bestStart + 1/best.weight
		best.inflight++
		best.grants++
		d.inUse++
		w.granted = true
		close(w.ready)
	}
}

// FairStats is one model's fair-share exposition snapshot.
type FairStats struct {
	// Weight is the configured weight (normalized to 1 when unset).
	Weight float64
	// Share is weight / sum(weights of known models).
	Share float64
	// Grants counts slots ever granted to the model.
	Grants int64
	// Inflight is slots currently held.
	Inflight int
	// Waiting is the model's queued slot requests — a starvation gauge:
	// persistently high waiting with low grants means the model is being
	// outweighed.
	Waiting int
}

// Stats returns the named model's fair-share snapshot.
func (d *FairDispatcher) Stats(name string) (FairStats, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm, ok := d.models[name]
	if !ok {
		return FairStats{}, false
	}
	var sum float64
	for _, m := range d.models {
		sum += m.weight
	}
	st := FairStats{
		Weight:   fm.weight,
		Grants:   fm.grants,
		Inflight: fm.inflight,
		Waiting:  len(fm.waiters),
	}
	if sum > 0 {
		st.Share = fm.weight / sum
	}
	return st, true
}
