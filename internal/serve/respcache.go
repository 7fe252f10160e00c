package serve

import (
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
// holding a queue slot or checking out a replica. It generalizes the
// batcher's in-window dedupe (which only collapses duplicates landing
// in the same dispatch window) across dispatch windows, bounded by a
// TTL.
//
// It is a typed view over coding.Memo (pixel-verified reads — a
// collision degrades to a miss, never to another image's outcome — and
// promotion on the second sighting inside one TTL window). The outcome
// is policy-dependent, so the policy is part of the key. Safe for
// concurrent use.
type ResponseCache struct {
	*coding.Memo[exitKey, Outcome]
}

type exitKey struct {
	hash   uint64
	policy ExitPolicy
}

// NewResponseCache returns a cache bounded to maxEntries (<= 0 uses
// DefaultResponseCacheEntries) whose entries expire ttl after their
// last Record (<= 0 uses DefaultResponseCacheTTL).
func NewResponseCache(maxEntries int, ttl time.Duration) *ResponseCache {
	if maxEntries <= 0 {
		maxEntries = DefaultResponseCacheEntries
	}
	if ttl <= 0 {
		ttl = DefaultResponseCacheTTL
	}
	return &ResponseCache{coding.NewMemo[exitKey, Outcome](maxEntries, ttl)}
}

// Lookup returns the cached Outcome for (image, policy) if an unexpired,
// pixel-verified entry exists. hash must be coding.HashImage(image) —
// the batcher hashes each request once at submit and reuses it here,
// in dedupe, and in Record.
func (c *ResponseCache) Lookup(hash uint64, image []float64, p ExitPolicy) (Outcome, bool) {
	return c.Get(exitKey{hash: hash, policy: p}, image)
}

// Record notes one classified (image, policy) → Outcome: stored on the
// key's second sighting inside a TTL window, refreshed (outcome and
// TTL) in place afterwards.
func (c *ResponseCache) Record(hash uint64, image []float64, p ExitPolicy, out Outcome) {
	c.Memo.Record(exitKey{hash: hash, policy: p}, image, out)
}
