package coding

// QuantCache memoizes the per-image quantization work of the periodic
// input encoders (phase and TTFS). The phase/TTFS Reset path re-derives
// the per-pixel bit pattern (or first-spike phase) with a clamp, a round,
// and — for TTFS — an MSB scan on every presentation; for serving
// workloads that see repeated images (retries, replayed traffic, batch
// lanes sharing an input) the cache turns that into a single map lookup.
//
// It is a typed view over the pixel-verified Memo (see memo.go for the
// discipline). Entries are immutable after Store: encoders alias a
// cached slice directly instead of copying it, which is what makes a hit
// allocation-free. Shared by every replica of a served model (clones
// inherit the pointer).
type QuantCache struct {
	*Memo[quantKey, []uint64]
}

// quantKey identifies one quantization result. The scheme is part of the
// key because phase caches the raw bit pattern while TTFS caches derived
// first-spike phases; size and period guard against improbable hash
// collisions across models.
type quantKey struct {
	hash   uint64
	scheme Scheme
	size   int
	period int
}

// DefaultQuantCacheEntries bounds a model's quantization cache. The
// model's memory bound is stated once, for all three views, on
// serve's internerEntries.
const DefaultQuantCacheEntries = 2048

// NewQuantCache returns a cache bounded to maxEntries (<= 0 uses
// DefaultQuantCacheEntries) verifying against px's pixel copies.
func NewQuantCache(maxEntries int, px *Interner) *QuantCache {
	if maxEntries <= 0 {
		maxEntries = DefaultQuantCacheEntries
	}
	return &QuantCache{NewMemo[quantKey, []uint64](maxEntries, 0, px)}
}

// quantized returns the scheme's quantization of image: the cache's
// immutable entry on a hit (no per-pixel work, no copy), else quantize's
// result in scratch — of which a copy is stored once the image has been
// sighted twice. A nil cache quantizes in place. Callers must treat the
// result as read-only.
func (c *QuantCache) quantized(scheme Scheme, image []float64, period int, scratch []uint64, quantize func()) []uint64 {
	if c == nil {
		quantize()
		return scratch
	}
	k := quantKey{hash: HashImage(image), scheme: scheme, size: len(image), period: period}
	q, ok, promote := c.Sight(k, image)
	if ok {
		return q
	}
	quantize()
	if promote {
		c.Store(k, image, append([]uint64(nil), scratch...))
	}
	return scratch
}

// QuantCached is implemented by encoders whose Reset work can be memoized
// through a QuantCache (phase and TTFS, sequential and batched). Attaching
// a cache is optional; a nil-cache encoder quantizes in place as before.
type QuantCached interface {
	SetQuantCache(*QuantCache)
}
