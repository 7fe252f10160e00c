package serve

import (
	"time"

	"burstsnn/internal/coding"
)

// DefaultResponseCacheEntries bounds a model's response cache (the
// model's memory bound is stated once, on internerEntries).
const DefaultResponseCacheEntries = 4096

// DefaultResponseCacheTTL bounds how long a cached Outcome may be
// served. The simulator is deterministic, so a cached outcome never
// goes *wrong* — the TTL only bounds how long a retired model revision
// could keep answering through a cache that outlives it, and keeps the
// promotion set from accumulating cold keys.
const DefaultResponseCacheTTL = time.Minute

// internerEntries bounds a model's pixel interner to its largest view:
// whatever one view can hold, the interner can hand to the other two.
// Per-model memory at MNIST scale (784 pixels ≈ 6.3 KB a copy): a
// replayed image costs one pixel copy, its quantization (as much again,
// up to DefaultQuantCacheEntries of them) and ≈100 B of exit step and
// Outcome, so a hot set filling every view takes ≈26 MB of pixels +
// ≈13 MB of quantizations. The worst case is adversarial — every view
// full of images the other two never promoted, the interner full of
// images no view kept: (2048 + 2048 + 4096 + 4096) copies ≈ 77 MB, plus
// the ≈13 MB of quantizations.
const internerEntries = max(coding.DefaultQuantCacheEntries, DefaultExitHistoryEntries, DefaultResponseCacheEntries)

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

// NewResponseCache returns a cache bounded to maxEntries (<= 0 uses
// DefaultResponseCacheEntries) whose entries expire ttl after their
// last Record (<= 0 uses DefaultResponseCacheTTL), verifying against
// px's pixel copies.
func NewResponseCache(maxEntries int, ttl time.Duration, px *coding.Interner) *ResponseCache {
	if maxEntries <= 0 {
		maxEntries = DefaultResponseCacheEntries
	}
	if ttl <= 0 {
		ttl = DefaultResponseCacheTTL
	}
	return &ResponseCache{coding.NewMemo[exitKey, Outcome](maxEntries, ttl, px)}
}

// Lookup returns the cached Outcome for (image, policy) if an unexpired,
// pixel-verified entry exists. hash must be coding.HashImage(image) —
// the batcher hashes each request once at submit and reuses it here,
// in dedupe, and in the exit history.
func (c *ResponseCache) Lookup(hash uint64, image []float64, p ExitPolicy) (Outcome, bool) {
	return c.Get(exitKey{hash: hash, policy: p}, image)
}

// Record notes one classified (image, policy) → Outcome: stored on the
// key's second sighting inside a TTL window, refreshed (outcome and
// TTL) in place afterwards.
func (c *ResponseCache) Record(hash uint64, image []float64, p ExitPolicy, out Outcome) {
	c.Memo.Record(exitKey{hash: hash, policy: p}, image, out)
}
