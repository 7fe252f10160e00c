package coding

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the one place the system remembers an image to avoid
// work. Its view is serve.ResponseCache (image, policy → Outcome), and
// the discipline below is the view's:
//
//   - keys carry HashImage, a word-at-a-time content hash (four
//     xor-rotate-multiply lanes finalized by SplitMix64, ≈0.4 µs for a
//     768-pixel image), which is fast, not collision-resistant, and fed
//     arbitrary client pixels: every read verifies SameImage against the
//     stored pixels, so a collision degrades to a miss, never to another
//     image's answer;
//   - a key earns an entry on its second sighting (inside one TTL when
//     the view has one), so unique-image traffic — the common serving
//     case — pays map probes but never allocates;
//   - entries and pending sightings are bounded, and a full map drops an
//     arbitrary key per insert: a small hot set dominates the workloads
//     this serves, so approximate eviction is enough;
//   - an entry holds its own copy of the pixels, made when the image is
//     promoted.

// HitMiss is the pair of read counters a Memo counts into. It belongs
// to whoever must outlive the view: serve.Metrics owns one per view and
// binds each fresh view to it at install.
type HitMiss struct{ Hits, Misses atomic.Int64 }

// Load reads both counters.
func (c *HitMiss) Load() (hits, misses int64) { return c.Hits.Load(), c.Misses.Load() }

func (c *HitMiss) add(hit bool) {
	if hit {
		c.Hits.Add(1)
	} else {
		c.Misses.Add(1)
	}
}

// evictOne makes room for one insert into a map bounded to max entries.
func evictOne[K comparable, V any](m map[K]V, max int) {
	if len(m) >= max {
		for old := range m {
			delete(m, old)
			break
		}
	}
}

// Memo is the generic pixel-verified memo: K is the view's key (the
// image hash plus whatever else the value depends on, such as the exit
// policy), V its immutable value. Safe for concurrent use.
type Memo[K comparable, V any] struct {
	// Now is the clock TTL views read (time.Now; tests inject a fake one
	// before first use). A zero-TTL view never calls it.
	Now func() time.Time

	count *HitMiss
	ttl   time.Duration
	max   int

	mu      sync.Mutex
	entries map[K]memoEntry[V]
	// seen is the promotion gate: keys sighted once, with the sighting
	// time. Promotion clears the key.
	seen map[K]time.Time
}

type memoEntry[V any] struct {
	image   []float64 // the memo's own copy; never written
	val     V
	expires time.Time // zero when the view has no TTL
}

// NewMemo returns a memo of at most max entries (and max pending
// sightings). With ttl > 0 an entry expires ttl after it was last
// recorded and a sighting must recur inside one ttl to promote; ttl 0
// keeps entries until evicted.
func NewMemo[K comparable, V any](max int, ttl time.Duration) *Memo[K, V] {
	return &Memo[K, V]{
		Now: time.Now, count: new(HitMiss), ttl: ttl, max: max,
		entries: map[K]memoEntry[V]{}, seen: map[K]time.Time{},
	}
}

// CountInto redirects the read counters (a private pair until then).
// Call it before the memo is shared.
func (m *Memo[K, V]) CountInto(c *HitMiss) { m.count = c }

// Len reports how many promoted entries the memo holds right now.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// read is the one verified read. An expired entry is dropped. With
// sight set (Record) a key that has no entry is also put through the
// promotion gate; promote then reports that the caller should Store the
// key's value now — it was sighted before (inside the TTL), or its entry
// holds other pixels (a collision, re-stored over).
func (m *Memo[K, V]) read(k K, image []float64, sight bool) (e memoEntry[V], ok, promote bool) {
	var now time.Time
	if m.ttl > 0 {
		now = m.Now()
	}
	m.mu.Lock()
	e, ok = m.entries[k]
	if ok && m.ttl > 0 && now.After(e.expires) {
		delete(m.entries, k)
		ok = false
	}
	if !ok && sight {
		first, again := m.seen[k]
		if promote = again && now.Sub(first) <= m.ttl; !promote {
			if !again {
				evictOne(m.seen, m.max)
			}
			m.seen[k] = now
		}
	}
	m.mu.Unlock()
	// Entries are immutable, so the pixel compare runs outside the lock.
	if ok && SameImage(e.image, image) {
		return e, true, false
	}
	return memoEntry[V]{}, false, promote || ok && sight
}

// Get returns the value stored for (k, image), counting a hit or miss.
// The value must not be mutated.
func (m *Memo[K, V]) Get(k K, image []float64) (V, bool) {
	e, ok, _ := m.read(k, image, false)
	m.count.add(ok)
	return e.val, ok
}

// Store inserts v for (k, a copy of image), replacing in place whatever
// k held; only a new key at capacity evicts. v must not be mutated
// afterwards.
func (m *Memo[K, V]) Store(k K, image []float64, v V) {
	m.put(k, append([]float64(nil), image...), v)
}

// Record is the write side for views handed a value with every
// sighting: a verified entry is refreshed in place (value and TTL), a
// first sighting is only noted, and the second one stores.
func (m *Memo[K, V]) Record(k K, image []float64, v V) {
	switch e, ok, promote := m.read(k, image, true); {
	case ok:
		m.put(k, e.image, v)
	case promote:
		m.Store(k, image, v)
	}
}

// put inserts v for k over pixels the memo already owns.
func (m *Memo[K, V]) put(k K, owned []float64, v V) {
	e := memoEntry[V]{image: owned, val: v}
	if m.ttl > 0 {
		e.expires = m.Now().Add(m.ttl)
	}
	m.mu.Lock()
	if _, ok := m.entries[k]; !ok {
		evictOne(m.entries, m.max)
	}
	delete(m.seen, k)
	m.entries[k] = e
	m.mu.Unlock()
}
