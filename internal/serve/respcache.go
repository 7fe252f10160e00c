package serve

import (
	"sync"
	"time"

	"burstsnn/internal/coding"
)

// DefaultResponseCacheEntries bounds a model's response cache, and with
// it the model's image memory: an entry holds one pixel copy and ≈100 B
// of Outcome, so at MNIST scale (784 pixels ≈ 6.3 KB a copy) a full
// cache holds ≈26 MB of pixels, whatever the traffic. The pending
// sightings hold keys only.
const DefaultResponseCacheEntries = 4096

// DefaultResponseCacheTTL bounds how long a cached Outcome may be
// served. The simulator is deterministic, so a cached outcome never
// goes *wrong* — the TTL only bounds how long a retired model revision
// could keep answering through a cache that outlives it, and keeps the
// promotion set from accumulating cold keys.
const DefaultResponseCacheTTL = time.Minute

// ResponseCache is the cross-batch (image-hash, policy) → Outcome cache
// in front of the batcher: replay-heavy traffic is answered without
// holding a queue slot or checking out a replica, across dispatch
// windows and bounded by a TTL. It is the one place the system remembers
// an image to avoid work, and its discipline is:
//
//   - keys carry coding.HashImage, which is fast, not collision-resistant,
//     and fed arbitrary client pixels: every read verifies SameImage
//     against the stored pixels, so a collision degrades to a miss, never
//     to another image's outcome; the outcome is policy-dependent, so the
//     policy is part of the key;
//   - a key earns an entry on its second sighting inside one TTL, so
//     unique-image traffic — the common serving case — pays map probes
//     but never allocates;
//   - entries and pending sightings are each bounded, and a full map
//     drops an arbitrary key per insert: a small hot set dominates the
//     workloads this serves, so approximate eviction is enough;
//   - an entry holds its own copy of the pixels, made when the image is
//     promoted.
//
// Safe for concurrent use.
type ResponseCache struct {
	// Now is the clock expiry and promotion read (time.Now; tests inject
	// a fake one before first use).
	Now func() time.Time

	count *hitMiss
	ttl   time.Duration
	max   int

	mu      sync.Mutex
	entries map[exitKey]cacheEntry
	// seen is the promotion gate: keys sighted once, with the sighting
	// time. Promotion clears the key.
	seen map[exitKey]time.Time
}

type exitKey struct {
	hash   uint64
	policy ExitPolicy
}

type cacheEntry struct {
	image   []float64 // the cache's own copy; never written
	out     Outcome
	expires time.Time
}

// NewResponseCache returns a cache bounded to maxEntries (<= 0 uses
// DefaultResponseCacheEntries) whose entries expire ttl after their
// last Record (<= 0 uses DefaultResponseCacheTTL). It counts its reads
// into count, the pair a model's Metrics owns, so the counters outlive
// the cache.
func NewResponseCache(maxEntries int, ttl time.Duration, count *hitMiss) *ResponseCache {
	if maxEntries <= 0 {
		maxEntries = DefaultResponseCacheEntries
	}
	if ttl <= 0 {
		ttl = DefaultResponseCacheTTL
	}
	return &ResponseCache{
		Now: time.Now, count: count, ttl: ttl, max: maxEntries,
		entries: map[exitKey]cacheEntry{}, seen: map[exitKey]time.Time{},
	}
}

// Len reports how many promoted entries the cache holds right now.
func (c *ResponseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns the cached Outcome for (image, policy) if an unexpired,
// pixel-verified entry exists, counting a hit or miss. hash must be
// coding.HashImage(image) — the batcher hashes each request once at
// submit and reuses it here and in Record.
func (c *ResponseCache) Lookup(hash uint64, image []float64, p ExitPolicy) (Outcome, bool) {
	e, ok, _ := c.read(exitKey{hash: hash, policy: p}, image, c.Now(), false)
	if ok {
		c.count.hits.Add(1)
	} else {
		c.count.misses.Add(1)
	}
	return e.out, ok
}

// Record notes one classified (image, policy) → Outcome: a verified
// entry is refreshed in place (outcome and TTL), a first sighting is
// only noted, and the second one inside a TTL stores a copy of the
// pixels — over whatever the key held, so a colliding image replaces the
// entry in place. Only a new key at capacity evicts.
func (c *ResponseCache) Record(hash uint64, image []float64, p ExitPolicy, out Outcome) {
	k := exitKey{hash: hash, policy: p}
	now := c.Now()
	e, ok, promote := c.read(k, image, now, true)
	if !ok && !promote {
		return
	}
	if !ok {
		e.image = append([]float64(nil), image...)
	}
	e.out, e.expires = out, now.Add(c.ttl)
	c.mu.Lock()
	if _, present := c.entries[k]; !present {
		evictOne(c.entries, c.max)
	}
	delete(c.seen, k)
	c.entries[k] = e
	c.mu.Unlock()
}

// read is the one verified read. An expired entry is dropped. With
// sight set (Record) a key that has no entry is also put through the
// promotion gate; promote then reports that the caller should store the
// key's outcome now — it was sighted before inside the TTL, or its entry
// holds other pixels (a collision, re-stored over).
func (c *ResponseCache) read(k exitKey, image []float64, now time.Time, sight bool) (e cacheEntry, ok, promote bool) {
	c.mu.Lock()
	e, ok = c.entries[k]
	if ok && now.After(e.expires) {
		delete(c.entries, k)
		ok = false
	}
	if !ok && sight {
		first, again := c.seen[k]
		if promote = again && now.Sub(first) <= c.ttl; !promote {
			if !again {
				evictOne(c.seen, c.max)
			}
			c.seen[k] = now
		}
	}
	c.mu.Unlock()
	// Entries are immutable, so the pixel compare runs outside the lock.
	if ok && coding.SameImage(e.image, image) {
		return e, true, false
	}
	return cacheEntry{}, false, promote || ok && sight
}

// evictOne makes room for one insert into a map bounded to max entries.
func evictOne[V any](m map[exitKey]V, max int) {
	if len(m) >= max {
		for old := range m {
			delete(m, old)
			break
		}
	}
}
