package serve

import (
	"sync"
	"testing"
	"time"

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

func cacheWithClock(max int, ttl time.Duration) (*ResponseCache, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c := NewResponseCache(max, ttl, coding.NewInterner(max))
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
	var count coding.HitMiss
	c.CountInto(&count)
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
	if hits, misses := count.Load(); hits != 1 || misses != 3 {
		t.Errorf("counted %d hits / %d misses, want 1/3", hits, misses)
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

// TestResponseCacheBound caps the promoted entries at max and stores
// nothing for single sightings (the pending set's own bound is pinned by
// coding's TestMemoDiscipline), so the cache's footprint is bounded no
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

// TestResponseCacheConcurrent hammers one hot key and a stream of cold
// keys from many goroutines — the race detector is the assertion, plus
// a final consistency check on the hot entry.
func TestResponseCacheConcurrent(t *testing.T) {
	c, _ := cacheWithClock(64, time.Minute)
	var count coding.HitMiss
	c.CountInto(&count)
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
	if hits, _ := count.Load(); hits == 0 {
		t.Error("no hits recorded under concurrency")
	}
}
