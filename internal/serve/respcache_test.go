package serve

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"burstsnn/internal/coding"
)

// fakeClock makes the cache's TTL behavior deterministic: tests advance
// it explicitly instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// cacheWithClock returns a cache on a fake clock, counting into a pair
// the test can read.
func cacheWithClock(max int, ttl time.Duration) (*ResponseCache, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c := NewResponseCache(max, ttl, new(hitMiss))
	c.Now = clk.now
	return c, clk
}

// respImage builds a distinct image per seed (the seed is encoded in
// the first pixel, so no two seeds ever alias).
func respImage(seed int) []float64 {
	img := make([]float64, 16)
	img[0] = float64(seed) / 1e6
	for i := 1; i < len(img); i++ {
		img[i] = float64(i) / 16
	}
	return img
}

// TestResponseCacheTwoSightingPromotion pins the entry discipline: the
// first Record of a key only marks it seen, the second promotes it, and
// only then does Lookup hit — with the exact recorded Outcome.
func TestResponseCacheTwoSightingPromotion(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img := respImage(1)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48, MinSteps: 8, StableWindow: 6}
	out := Outcome{Prediction: 3, Steps: 17, EarlyExit: true, Margin: 0.25, InputSpikes: 40, HiddenSpikes: 90}

	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Record(h, img, p, out)
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("hit after a single sighting — promotion requires two")
	}
	if c.Len() != 0 {
		t.Fatalf("entry stored on first sighting: Len = %d", c.Len())
	}
	c.Record(h, img, p, out)
	got, ok := c.Lookup(h, img, p)
	if !ok {
		t.Fatal("miss after second sighting")
	}
	if got != out {
		t.Fatalf("cached outcome %+v, recorded %+v", got, out)
	}
	// Policy is part of the key: same image, different policy misses.
	if _, ok := c.Lookup(h, img, ExitPolicy{MaxSteps: 32}); ok {
		t.Fatal("hit across a different exit policy")
	}
	if hits, misses := c.count.hits.Load(), c.count.misses.Load(); hits != 1 || misses != 3 {
		t.Errorf("counted %d hits / %d misses, want 1/3", hits, misses)
	}
}

// TestResponseCacheRefreshInPlace pins what happens after promotion:
// later sightings of a key overwrite its outcome in place without adding
// an entry, and only Lookup counts hits and misses — Record never does.
func TestResponseCacheRefreshInPlace(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img := respImage(1)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	c.Lookup(h, img, p) // miss
	c.Record(h, img, p, Outcome{Prediction: 3})
	c.Lookup(h, img, p) // miss: one sighting
	c.Record(h, img, p, Outcome{Prediction: 3})
	if got, ok := c.Lookup(h, img, p); !ok || got.Prediction != 3 {
		t.Fatalf("after the second sighting Lookup = %+v,%v, want prediction 3", got, ok)
	}
	c.Lookup(h, img, ExitPolicy{MaxSteps: 32}) // miss: another policy
	for i := 4; i < 7; i++ {
		c.Record(h, img, p, Outcome{Prediction: i})
	}
	if got, _ := c.Lookup(h, img, p); got.Prediction != 6 || c.Len() != 1 {
		t.Fatalf("refreshed outcome %+v (Len %d), want prediction 6 (1)", got, c.Len())
	}
	if hits, misses := c.count.hits.Load(), c.count.misses.Load(); hits != 2 || misses != 3 {
		t.Errorf("counted %d hits / %d misses, want 2/3 (Record never counts)", hits, misses)
	}
}

// TestResponseCacheCollisionDegradesToMiss is the safety property: a
// hash collision must never serve another image's outcome. A colliding
// Lookup misses; a colliding Record replaces the stored entry.
func TestResponseCacheCollisionDegradesToMiss(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img, other := respImage(1), respImage(2)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	out := Outcome{Prediction: 5, Steps: 20}
	c.Record(h, img, p, out)
	c.Record(h, img, p, out)

	// Forged collision: same hash key, different pixels.
	if _, ok := c.Lookup(h, other, p); ok {
		t.Fatal("collision served another image's outcome")
	}
	// Recording under the colliding key replaces the entry outright.
	otherOut := Outcome{Prediction: 7, Steps: 31}
	c.Record(h, other, p, otherOut)
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("original image still served after a colliding re-store")
	}
	got, ok := c.Lookup(h, other, p)
	if !ok || got != otherOut {
		t.Fatalf("colliding image after re-store: ok=%v out=%+v, want %+v", ok, got, otherOut)
	}
}

// TestResponseCacheHitIsPixelVerified pins that the verify reads every
// pixel: an image that differs from the stored one only in its last
// pixel misses with the zero Outcome, and recording it under the shared
// key swaps the entry without adding one.
func TestResponseCacheHitIsPixelVerified(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img := respImage(1)
	forged := append([]float64(nil), img...)
	forged[len(forged)-1] += 1.0 / 1024
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	c.Record(h, img, p, Outcome{Prediction: 4, Steps: 12})
	c.Record(h, img, p, Outcome{Prediction: 4, Steps: 12})
	if got, ok := c.Lookup(h, forged, p); ok || got != (Outcome{}) {
		t.Fatalf("an image differing in its last pixel got %+v,%v — another image's outcome", got, ok)
	}
	c.Record(h, forged, p, Outcome{Prediction: 6})
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("original image still served after the forged image was recorded under its key")
	}
	if got, ok := c.Lookup(h, forged, p); !ok || got.Prediction != 6 || c.Len() != 1 {
		t.Fatalf("forged image after its record: %+v,%v (Len %d), want prediction 6 (1)", got, ok, c.Len())
	}
}

// TestResponseCacheTTL drives expiry with an injected clock: an entry
// stops hitting once the TTL passes, refreshes on re-Record, and a
// first sighting older than one TTL window no longer counts toward
// promotion.
func TestResponseCacheTTL(t *testing.T) {
	const ttl = time.Minute
	c, clk := cacheWithClock(8, ttl)
	img := respImage(3)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	out := Outcome{Prediction: 1, Steps: 9}
	c.Record(h, img, p, out)
	c.Record(h, img, p, out)
	if _, ok := c.Lookup(h, img, p); !ok {
		t.Fatal("miss right after promotion")
	}

	// Refresh: a Record at ttl-1s pushes expiry out a full window.
	clk.advance(ttl - time.Second)
	c.Record(h, img, p, out)
	clk.advance(ttl - time.Second)
	if _, ok := c.Lookup(h, img, p); !ok {
		t.Fatal("entry expired despite an in-window refresh")
	}

	// Past the refreshed deadline the entry is dropped on lookup.
	clk.advance(2 * time.Second)
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("hit after TTL expiry")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry retained: Len = %d", c.Len())
	}

	// Stale sighting: first Record, then more than one TTL of silence —
	// the next Record must re-mark, not promote.
	cold := respImage(4)
	ch := coding.HashImage(cold)
	c.Record(ch, cold, p, out)
	clk.advance(ttl + time.Second)
	c.Record(ch, cold, p, out)
	if _, ok := c.Lookup(ch, cold, p); ok {
		t.Fatal("stale first sighting still counted toward promotion")
	}
}

// TestResponseCacheExpiredKeyReEarnsEntry pins that expiry forgets a key
// outright: after its entry expires, one sighting only notes it again, a
// sighting older than one TTL does not count, and two sightings inside
// one TTL promote it anew.
func TestResponseCacheExpiredKeyReEarnsEntry(t *testing.T) {
	const ttl = time.Minute
	c, clk := cacheWithClock(8, ttl)
	img := respImage(3)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	out := Outcome{Prediction: 1, Steps: 9}
	c.Record(h, img, p, out)
	c.Record(h, img, p, out)
	clk.advance(ttl + time.Second)
	if _, ok := c.Lookup(h, img, p); ok || c.Len() != 0 {
		t.Fatalf("expired entry served or retained (Len %d)", c.Len())
	}
	c.Record(h, img, p, out)
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("an expired entry came back on a single sighting")
	}
	clk.advance(ttl + time.Second)
	c.Record(h, img, p, out)
	if _, ok := c.Lookup(h, img, p); ok {
		t.Fatal("a sighting older than one TTL still counted toward promotion")
	}
	c.Record(h, img, p, out)
	if got, ok := c.Lookup(h, img, p); !ok || got != out {
		t.Fatalf("two sightings inside one TTL gave %+v,%v, want %+v", got, ok, out)
	}
}

// TestResponseCacheBound caps the promoted entries at max and stores
// nothing for single sightings (the pending set's own bound is pinned by
// TestResponseCachePendingBound), so the cache's footprint is bounded no
// matter the traffic.
func TestResponseCacheBound(t *testing.T) {
	const max = 4
	c, _ := cacheWithClock(max, time.Minute)
	p := ExitPolicy{MaxSteps: 48}
	for i := 0; i < 3*max; i++ {
		img := respImage(i)
		h := coding.HashImage(img)
		c.Record(h, img, p, Outcome{Prediction: i % 10})
		c.Record(h, img, p, Outcome{Prediction: i % 10})
		if c.Len() > max {
			t.Fatalf("entries grew past the bound: %d > %d", c.Len(), max)
		}
	}
	c2, _ := cacheWithClock(max, time.Minute)
	for i := 0; i < 3*max; i++ {
		img := respImage(100 + i)
		c2.Record(coding.HashImage(img), img, p, Outcome{})
	}
	if c2.Len() != 0 {
		t.Fatalf("single sightings allocated %d entries, want 0", c2.Len())
	}
}

// TestResponseCachePendingBound caps the pending sightings at max as
// well as the entries, under unique traffic and under replayed traffic.
func TestResponseCachePendingBound(t *testing.T) {
	const max = 4
	p := ExitPolicy{MaxSteps: 48}
	c, _ := cacheWithClock(max, time.Minute)
	for i := 0; i < 3*max; i++ { // unique traffic: sightings only
		img := respImage(100 + i)
		c.Record(coding.HashImage(img), img, p, Outcome{})
		if len(c.seen) > max || c.Len() != 0 {
			t.Fatalf("after %d single sightings: %d pending, %d entries (max %d, want 0 entries)", i+1, len(c.seen), c.Len(), max)
		}
	}
	for i := 0; i < 3*max; i++ { // replayed traffic: every key promotes
		img := respImage(i)
		h := coding.HashImage(img)
		c.Record(h, img, p, Outcome{Prediction: i % 10})
		c.Record(h, img, p, Outcome{Prediction: i % 10})
		if c.Len() > max || len(c.seen) > max {
			t.Fatalf("grew past the bound %d: %d entries, %d pending", max, c.Len(), len(c.seen))
		}
	}
}

// TestResponseCacheRecordReplacesInPlace pins that recording under a key
// the full cache already holds — same pixels, or a colliding image —
// replaces that entry and evicts nothing else.
func TestResponseCacheRecordReplacesInPlace(t *testing.T) {
	const max = 4
	c, _ := cacheWithClock(max, time.Minute)
	p := ExitPolicy{MaxSteps: 48}
	imgs := make([][]float64, max)
	for i := range imgs {
		imgs[i] = respImage(i)
		c.Record(coding.HashImage(imgs[i]), imgs[i], p, Outcome{Prediction: i})
		c.Record(coding.HashImage(imgs[i]), imgs[i], p, Outcome{Prediction: i})
	}
	c.Record(coding.HashImage(imgs[0]), imgs[0], p, Outcome{Prediction: 9})       // same pixels
	c.Record(coding.HashImage(imgs[1]), respImage(50), p, Outcome{Prediction: 8}) // other pixels under the key
	if c.Len() != max {
		t.Fatalf("Len = %d after two re-records at capacity, want %d", c.Len(), max)
	}
	for i := 2; i < max; i++ {
		if out, ok := c.Lookup(coding.HashImage(imgs[i]), imgs[i], p); !ok || out.Prediction != i {
			t.Fatalf("re-recording a present key evicted unrelated entry %d", i)
		}
	}
	if out, _ := c.Lookup(coding.HashImage(imgs[0]), imgs[0], p); out.Prediction != 9 {
		t.Fatalf("re-recorded prediction %d, want 9", out.Prediction)
	}
	if out, ok := c.Lookup(coding.HashImage(imgs[1]), respImage(50), p); !ok || out.Prediction != 8 {
		t.Fatalf("colliding re-record: %+v,%v, want prediction 8", out, ok)
	}
}

// TestResponseCacheOwnsPixelCopy pins that a promoted entry verifies
// against the cache's own copy of the pixels: the caller may reuse its
// buffer.
func TestResponseCacheOwnsPixelCopy(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img := respImage(1)
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	c.Record(h, img, p, Outcome{Prediction: 4})
	c.Record(h, img, p, Outcome{Prediction: 4})
	if unsafe.SliceData(c.entries[exitKey{hash: h, policy: p}].image) == unsafe.SliceData(img) {
		t.Fatal("the cache aliases the caller's image instead of copying it")
	}
	orig := append([]float64(nil), img...)
	img[0] = 0.5 // the caller reuses its buffer
	if out, ok := c.Lookup(h, orig, p); !ok || out.Prediction != 4 {
		t.Fatalf("after the caller rewrote its buffer Lookup = %+v,%v, want prediction 4", out, ok)
	}
}

// TestResponseCacheNaNPayloads pins that the pixel verify compares bit
// patterns: an image holding NaN hits itself, and a NaN with another
// payload is another image.
func TestResponseCacheNaNPayloads(t *testing.T) {
	c, _ := cacheWithClock(8, time.Minute)
	img := respImage(1)
	img[3] = math.NaN()
	h := coding.HashImage(img)
	p := ExitPolicy{MaxSteps: 48}
	c.Record(h, img, p, Outcome{Prediction: 7})
	c.Record(h, img, p, Outcome{Prediction: 7})
	if _, ok := c.Lookup(h, append([]float64(nil), img...), p); !ok {
		t.Fatal("an image holding NaN never hits itself (== compare instead of bit patterns)")
	}
	other := append([]float64(nil), img...)
	other[3] = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // NaN, other payload
	if _, ok := c.Lookup(h, other, p); ok {
		t.Fatal("a different NaN payload verified as the same image")
	}
}

// TestResponseCacheUniqueTrafficZeroAlloc pins the contract for the
// common serving case: a unique image (a Lookup miss and a first
// sighting) never allocates, even with the sighting set at its bound.
func TestResponseCacheUniqueTrafficZeroAlloc(t *testing.T) {
	const max = 4 // pending set at its bound: every sighting evicts one
	c, _ := cacheWithClock(max, time.Minute)
	p := ExitPolicy{MaxSteps: 48}
	images := make([][]float64, 64)
	for i := range images {
		images[i] = respImage(i)
	}
	next := 0
	pass := func() {
		img := images[next%len(images)]
		next++
		h := coding.HashImage(img)
		c.Lookup(h, img, p)
		c.Record(h, img, p, Outcome{Prediction: 3})
	}
	for i := 0; i < 2*max; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(40, pass); allocs != 0 {
		t.Errorf("a unique image through the cache allocates %.1f objects, want 0", allocs)
	}
	if c.Len() != 0 {
		t.Fatalf("unique traffic stored %d entries", c.Len())
	}
}

// TestResponseCacheConcurrent hammers one hot key and a stream of cold
// keys from many goroutines — the race detector is the assertion, plus
// a final consistency check on the hot entry.
func TestResponseCacheConcurrent(t *testing.T) {
	c, _ := cacheWithClock(64, time.Minute)
	hot := respImage(1)
	hotHash := coding.HashImage(hot)
	p := ExitPolicy{MaxSteps: 48}
	hotOut := Outcome{Prediction: 2, Steps: 11}
	c.Record(hotHash, hot, p, hotOut)
	c.Record(hotHash, hot, p, hotOut)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if out, ok := c.Lookup(hotHash, hot, p); ok && out != hotOut {
					t.Errorf("hot lookup returned %+v, want %+v", out, hotOut)
				}
				cold := respImage(1000 + g*200 + i)
				ch := coding.HashImage(cold)
				c.Record(ch, cold, p, Outcome{Prediction: g})
				c.Lookup(ch, cold, p)
			}
		}(g)
	}
	wg.Wait()
	if c.count.hits.Load() == 0 {
		t.Error("no hits recorded under concurrency")
	}
}

// TestResponseCacheConcurrentReplays races refreshes of a hot key with
// replayed cold keys that promote and evict one another, so Record's
// promotion and eviction paths run against concurrent Lookups. The race
// detector is the main assertion; the hot entry must stay consistent and
// both sets within their bound.
func TestResponseCacheConcurrentReplays(t *testing.T) {
	const max = 64
	c, _ := cacheWithClock(max, time.Minute)
	hot := respImage(1)
	hotHash := coding.HashImage(hot)
	p := ExitPolicy{MaxSteps: 48}
	hotOut := Outcome{Prediction: 2, Steps: 11}
	c.Record(hotHash, hot, p, hotOut)
	c.Record(hotHash, hot, p, hotOut)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if out, ok := c.Lookup(hotHash, hot, p); ok && out != hotOut {
					t.Errorf("hot lookup returned %+v, want %+v", out, hotOut)
				}
				c.Record(hotHash, hot, p, hotOut)
				cold := respImage(1000 + g*200 + i%50)
				ch := coding.HashImage(cold)
				c.Record(ch, cold, p, Outcome{Prediction: g})
				c.Lookup(ch, cold, p)
			}
		}(g)
	}
	wg.Wait()
	if c.count.hits.Load() == 0 {
		t.Error("no hits recorded under concurrency")
	}
	if c.Len() > max || len(c.seen) > max {
		t.Fatalf("grew past the bound %d under concurrency: %d entries, %d pending", max, c.Len(), len(c.seen))
	}
}

// TestResponseCacheMemoryBound pins the bound stated on
// DefaultResponseCacheEntries: a stream of more distinct images than the
// cache holds, each sent twice so the cache promotes it, grows the heap
// by no more than one pixel copy per entry at the model's image size,
// with 25 % for map and allocator overhead.
func TestResponseCacheMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("heap accounting, not concurrency: CI's race ×20 repeat (-short) gains nothing from it")
	}
	net, set := testModel(t)
	s := New(Config{})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Register(lifecycleModelConfig("digits"), net, set.Train); err != nil {
		t.Fatalf("Register: %v", err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	baseline := heap()
	images := DefaultResponseCacheEntries + DefaultResponseCacheEntries/4
	for i := 0; i < images; i++ {
		img := append([]float64(nil), set.Test[i%len(set.Test)].Image...)
		img[0], img[1] = float64(i%1024+1)/2048, float64(i/1024+1)/2048
		for range 2 {
			if _, err := s.Classify(context.Background(), ClassifyRequest{Model: "digits", Image: img}); err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
		}
	}
	grew := heap() - baseline
	s.mu.Lock()
	held := s.entries["digits"].batcher.cache.Len()
	s.mu.Unlock()
	if held != DefaultResponseCacheEntries {
		t.Fatalf("response cache holds %d entries after %d promoted images, want it full (%d)", held, images, DefaultResponseCacheEntries)
	}
	pixelCopy := int64(8 * len(set.Test[0].Image))
	bound := DefaultResponseCacheEntries * pixelCopy
	t.Logf("heap grew %.1f MB over %d images; stated bound %.1f MB", float64(grew)/1e6, images, float64(bound)/1e6)
	if grew > bound*5/4 {
		t.Errorf("heap grew %.1f MB, over the stated bound %.1f MB + 25 %%", float64(grew)/1e6, float64(bound)/1e6)
	}
}
