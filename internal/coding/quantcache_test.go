package coding

import (
	"testing"

	"burstsnn/internal/mathx"
)

func randomImage(seed uint64, n int) []float64 {
	r := mathx.NewRNG(seed)
	img := make([]float64, n)
	for i := range img {
		img[i] = r.Float64()
	}
	return img
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuantCacheEncoderEquivalence checks that attaching a quantization
// cache never changes an encoder's event stream: cold (miss), warm (hit),
// and cacheless paths must emit identical events over a full period, for
// both periodic encoders.
func TestQuantCacheEncoderEquivalence(t *testing.T) {
	const size = 96
	for _, scheme := range []Scheme{Phase, TTFS} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			plain, err := NewInputEncoder(cfg, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := NewInputEncoder(cfg, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewQuantCache(0, NewInterner(8))
			cached.(QuantCached).SetQuantCache(cache)

			images := [][]float64{
				randomImage(11, size),
				randomImage(22, size),
				randomImage(11, size), // second sighting → stored
				randomImage(11, size), // third sighting → hit
			}
			for round, img := range images {
				plain.Reset(img)
				cached.Reset(img)
				for s := 0; s < cfg.Period; s++ {
					a := append([]Event(nil), plain.Step(s)...)
					b := cached.Step(s)
					if !eventsEqual(a, b) {
						t.Fatalf("round %d step %d: cached events diverge", round, s)
					}
				}
			}
			// Entries are stored on a key's second miss (so unique-image
			// traffic never populates the cache): resets 1-3 miss, the
			// third stores, the fourth hits.
			hits, misses := cache.count.Load()
			if hits != 1 || misses != 3 {
				t.Errorf("hits/misses = %d/%d, want 1/3", hits, misses)
			}

			// Clones share the cache: a clone resetting a stored image hits.
			clone := cached.(CloneableEncoder).Clone()
			clone.Reset(images[0])
			if h, _ := cache.count.Load(); h != 2 {
				t.Errorf("clone reset did not hit the shared cache (hits=%d)", h)
			}
		})
	}
}

// TestQuantCacheCollisionDegradesToMiss pins the defense against hash
// collisions: a key match whose pixels differ (the serving layer accepts
// arbitrary client images, and the 64-bit content hash is not
// collision-resistant) must count as a miss and never serve the other
// image's quantization.
func TestQuantCacheCollisionDegradesToMiss(t *testing.T) {
	c := NewQuantCache(0, NewInterner(8))
	imgA := randomImage(1, 16)
	imgB := randomImage(2, 16)
	k := quantKey{hash: 42, scheme: Phase, size: 16, period: 8}
	qA := make([]uint64, 16)
	quantizeBits(qA, imgA, 8)
	c.Store(k, imgA, qA)
	if _, ok, promote := c.Sight(k, imgB); ok {
		t.Fatal("colliding key with different pixels served the cached quantization")
	} else if !promote {
		t.Fatal("collision miss should ask the caller to re-store")
	}
	if q, ok, _ := c.Sight(k, imgA); !ok || &q[0] != &qA[0] {
		t.Fatal("matching pixels should hit the stored entry")
	}
	hits, misses := c.count.Load()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// TestQuantCacheBatchLanes checks the batch-lane payoff: lanes loaded
// with the same image quantize once and hit thereafter, and the batched
// encoder's stream is unaffected by the cache.
func TestQuantCacheBatchLanes(t *testing.T) {
	const size, b = 64, 4
	cfg := DefaultConfig(Phase)
	seq, err := NewInputEncoder(cfg, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewQuantCache(0, NewInterner(8))
	seq.(QuantCached).SetQuantCache(cache)
	batch := seq.(BatchableEncoder).NewBatch(b)

	img := randomImage(77, size)
	for lane := 0; lane < b; lane++ {
		batch.SetLane(lane, img)
	}
	// Lane 0 misses (first sighting), lane 1 misses and stores (second
	// sighting), the remaining lanes hit.
	hits, misses := cache.count.Load()
	if misses != 2 || hits != b-2 {
		t.Errorf("hits/misses = %d/%d, want %d/2", hits, misses, b-2)
	}

	// The batched stream must match the sequential encoder lane by lane
	// (exactly: phase payloads are powers of two, lossless in float32).
	seq.Reset(img)
	var cols BatchEvents32
	cols.Grow(size, size*b)
	for s := 0; s < cfg.Period; s++ {
		want := seq.Step(s)
		batch.Step32(s, b, &cols)
		for lane := int32(0); lane < b; lane++ {
			if got := cols.AppendLane(lane, nil); !eventsEqual(got, want) {
				t.Fatalf("step %d lane %d: batched events diverge", s, lane)
			}
		}
	}
}
