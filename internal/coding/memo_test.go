package coding

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// memoClock is the fake clock of the TTL rows: tests advance it instead
// of sleeping.
type memoClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *memoClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *memoClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// memoKey mirrors serve's exitKey: the image hash plus what the value
// depends on.
type memoKey struct {
	hash   uint64
	policy int
}

func keyOf(image []float64) memoKey { return memoKey{hash: HashImage(image)} }

// memoImage builds a distinct image per seed.
func memoImage(seed int) []float64 {
	img := make([]float64, 16)
	img[0] = float64(seed) / 1e6
	for i := 1; i < len(img); i++ {
		img[i] = float64(i) / 16
	}
	return img
}

// TestMemoDiscipline is the one suite for the discipline every view
// inherits, over both kinds of view: without a TTL (quant cache, exit
// history — the clock must never be read) and with one (response cache).
func TestMemoDiscipline(t *testing.T) {
	const ttl = time.Minute
	for _, mode := range []struct {
		name string
		ttl  time.Duration
	}{{"noTTL", 0}, {"TTL", ttl}} {
		t.Run(mode.name, func(t *testing.T) {
			newMemo := func(max int) (*Memo[memoKey, int], *memoClock) {
				clk := &memoClock{t: time.Unix(1_700_000_000, 0)}
				m := NewMemo[memoKey, int](max, mode.ttl, NewInterner(max))
				m.Now = clk.now
				if mode.ttl == 0 {
					m.Now = func() time.Time { panic("a zero-TTL memo read the clock") }
				}
				return m, clk
			}

			t.Run("two sightings promote", func(t *testing.T) {
				m, _ := newMemo(8)
				img := memoImage(1)
				k := keyOf(img)
				if _, ok := m.Get(k, img); ok {
					t.Fatal("hit on an empty memo")
				}
				m.Record(k, img, 17)
				if _, ok := m.Get(k, img); ok || m.Len() != 0 {
					t.Fatalf("first sighting stored an entry (Len %d)", m.Len())
				}
				m.Record(k, img, 17)
				if v, ok := m.Get(k, img); !ok || v != 17 {
					t.Fatalf("after the second sighting Get = %d,%v, want 17,true", v, ok)
				}
				m.Record(k, img, 23) // later sightings refresh in place
				if v, _ := m.Get(k, img); v != 23 || m.Len() != 1 {
					t.Fatalf("refreshed value %d (Len %d), want 23 (1)", v, m.Len())
				}
				// The rest of the key is part of the identity.
				if _, ok := m.Get(memoKey{hash: k.hash, policy: 1}, img); ok {
					t.Fatal("hit across a different key suffix")
				}
				if hits, misses := m.count.Load(); hits != 2 || misses != 3 {
					t.Errorf("counted %d hits / %d misses, want 2/3 (Record never counts)", hits, misses)
				}
				// Sight is Get plus the sighting, for values built on demand.
				img2 := memoImage(2)
				k2 := keyOf(img2)
				if _, ok, promote := m.Sight(k2, img2); ok || promote {
					t.Fatalf("first Sight = ok %v promote %v, want a plain miss", ok, promote)
				}
				if _, ok, promote := m.Sight(k2, img2); ok || !promote {
					t.Fatalf("second Sight = ok %v promote %v, want promote", ok, promote)
				}
				m.Store(k2, img2, 5)
				if v, ok, _ := m.Sight(k2, img2); !ok || v != 5 {
					t.Fatalf("Sight after Store = %d,%v, want 5,true", v, ok)
				}
			})

			t.Run("hit is pixel-verified", func(t *testing.T) {
				m, _ := newMemo(8)
				img, forged := memoImage(1), memoImage(2)
				k := keyOf(img)
				m.Store(k, img, 40)
				// Forged collision: the same key, other pixels.
				if v, ok := m.Get(k, forged); ok || v != 0 {
					t.Fatalf("collision served %d,%v — another image's value", v, ok)
				}
				if v, ok, promote := m.Sight(k, forged); ok || v != 0 || !promote {
					t.Fatalf("colliding Sight = %d,%v promote %v, want a miss that re-stores", v, ok, promote)
				}
				m.Record(k, forged, 41) // replaces the entry outright
				if _, ok := m.Get(k, img); ok {
					t.Fatal("original image still served after the colliding re-store")
				}
				if v, ok := m.Get(k, forged); !ok || v != 41 || m.Len() != 1 {
					t.Fatalf("colliding image after re-store: %d,%v (Len %d), want 41,true (1)", v, ok, m.Len())
				}
			})

			t.Run("NaN payloads do not defeat the verify", func(t *testing.T) {
				m, _ := newMemo(8)
				img := memoImage(1)
				img[3] = math.NaN()
				k := keyOf(img)
				m.Store(k, img, 7)
				if _, ok := m.Get(k, append([]float64(nil), img...)); !ok {
					t.Fatal("an image holding NaN never hits itself (== compare instead of bit patterns)")
				}
				other := append([]float64(nil), img...)
				other[3] = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // NaN, other payload
				if _, ok := m.Get(k, other); ok {
					t.Fatal("a different NaN payload verified as the same image")
				}
			})

			t.Run("bounds hold", func(t *testing.T) {
				const max = 4
				m, _ := newMemo(max)
				for i := 0; i < 3*max; i++ { // unique traffic: sightings only
					img := memoImage(i)
					m.Record(keyOf(img), img, i)
					if len(m.seen) > max || m.Len() != 0 {
						t.Fatalf("after %d single sightings: %d pending, %d entries (max %d, want 0 entries)", i+1, len(m.seen), m.Len(), max)
					}
				}
				for i := 0; i < 3*max; i++ { // replayed traffic: every key promotes
					img := memoImage(100 + i)
					m.Record(keyOf(img), img, i)
					m.Record(keyOf(img), img, i)
					if m.Len() > max || len(m.seen) > max || len(m.px.px) > max {
						t.Fatalf("grew past the bound %d: %d entries, %d pending, %d interned", max, m.Len(), len(m.seen), len(m.px.px))
					}
				}
			})

			t.Run("re-store at capacity replaces in place", func(t *testing.T) {
				const max = 4
				m, _ := newMemo(max)
				imgs := make([][]float64, max)
				for i := range imgs {
					imgs[i] = memoImage(i)
					m.Store(keyOf(imgs[i]), imgs[i], i)
				}
				m.Store(keyOf(imgs[0]), imgs[0], 99)       // same pixels
				m.Store(keyOf(imgs[1]), memoImage(50), 98) // changed pixels under the key
				if m.Len() != max {
					t.Fatalf("Len = %d after two re-stores at capacity, want %d", m.Len(), max)
				}
				for i := 2; i < max; i++ {
					if v, ok := m.Get(keyOf(imgs[i]), imgs[i]); !ok || v != i {
						t.Fatalf("re-storing a present key evicted unrelated entry %d", i)
					}
				}
				if v, _ := m.Get(keyOf(imgs[0]), imgs[0]); v != 99 {
					t.Fatalf("re-stored value %d, want 99", v)
				}
			})

			t.Run("concurrent", func(t *testing.T) {
				m, _ := newMemo(64)
				hot := memoImage(1)
				m.Store(keyOf(hot), hot, 11)
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							if v, ok := m.Get(keyOf(hot), hot); ok && v != 11 {
								t.Errorf("hot read returned %d, want 11", v)
							}
							m.Record(keyOf(hot), hot, 11)
							cold := memoImage(1000 + g*200 + i%50)
							m.Record(keyOf(cold), cold, g)
							m.Sight(keyOf(cold), cold)
						}
					}(g)
				}
				wg.Wait()
				if hits, _ := m.count.Load(); hits == 0 {
					t.Error("no hits counted under concurrency")
				}
			})

			if mode.ttl == 0 {
				return
			}
			t.Run("expiry", func(t *testing.T) {
				m, clk := newMemo(8)
				img := memoImage(3)
				k := keyOf(img)
				m.Record(k, img, 9)
				m.Record(k, img, 9)
				clk.advance(ttl - time.Second)
				m.Record(k, img, 9) // refresh pushes expiry out a full window
				clk.advance(ttl - time.Second)
				if _, ok := m.Get(k, img); !ok {
					t.Fatal("entry expired despite an in-window refresh")
				}
				clk.advance(2 * time.Second)
				if _, ok := m.Get(k, img); ok || m.Len() != 0 {
					t.Fatalf("expired entry served or retained (Len %d)", m.Len())
				}
				// The key must earn its entry again, inside one TTL.
				m.Record(k, img, 9)
				clk.advance(ttl + time.Second)
				m.Record(k, img, 9)
				if _, ok := m.Get(k, img); ok {
					t.Fatal("a sighting older than one TTL still counted toward promotion")
				}
				m.Record(k, img, 9)
				if _, ok := m.Get(k, img); !ok {
					t.Fatal("two sightings inside one TTL did not promote")
				}
			})
		})
	}
}

// TestMemoViewsShareOnePixelCopy is the point of the interner: an image
// promoted in all three of a model's views is copied once.
func TestMemoViewsShareOnePixelCopy(t *testing.T) {
	px := NewInterner(8)
	quant := NewQuantCache(8, px)
	exits := NewMemo[memoKey, int](8, 0, px)
	resps := NewMemo[memoKey, [6]int](8, time.Minute, px)

	img := randomImage(7, 8192) // 64 KB: far above any map or entry overhead
	qk := quantKey{hash: HashImage(img), scheme: Phase, size: len(img), period: 8}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	quant.Store(qk, img, nil)
	for i := 0; i < 2; i++ {
		exits.Record(keyOf(img), img, 40)
		resps.Record(keyOf(img), img, [6]int{3})
	}
	runtime.ReadMemStats(&after)

	copies := []*float64{
		unsafe.SliceData(quant.entries[qk].image),
		unsafe.SliceData(exits.entries[keyOf(img)].image),
		unsafe.SliceData(resps.entries[keyOf(img)].image),
	}
	if copies[0] == unsafe.SliceData(img) {
		t.Fatal("the memo aliases the caller's image instead of copying it")
	}
	if copies[1] != copies[0] || copies[2] != copies[0] {
		t.Fatalf("views verify against different pixel copies: %p %p %p", copies[0], copies[1], copies[2])
	}
	if got, one := after.TotalAlloc-before.TotalAlloc, uint64(8*len(img)); got >= 2*one {
		t.Fatalf("promoting one image in three views allocated %d B, want one %d B copy", got, one)
	}

	// Evicted from the interner, the copy lives on in the views; a later
	// promotion costs a fresh copy, never correctness.
	for i := 0; px.px[qk.hash] != nil; i++ {
		other := memoImage(i)
		exits.Store(keyOf(other), other, i)
	}
	if _, ok, _ := quant.Sight(qk, img); !ok {
		t.Fatal("view lost its entry when the interner evicted the image")
	}
}

// TestMemoUniqueTrafficZeroAlloc pins the contract below the engine:
// unique images (a read miss and a first sighting per view) never
// allocate, whatever the view.
func TestMemoUniqueTrafficZeroAlloc(t *testing.T) {
	const max = 4 // pending sets at their bound: every sighting evicts one
	px := NewInterner(max)
	enc, err := NewInputEncoder(DefaultConfig(Phase), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc.(QuantCached).SetQuantCache(NewQuantCache(max, px))
	exits := NewMemo[memoKey, int](max, 0, px)
	resps := NewMemo[memoKey, [6]int](max, time.Minute, px)
	images := make([][]float64, 64)
	for i := range images {
		images[i] = memoImage(i)
	}
	next := 0
	pass := func() {
		img := images[next%len(images)]
		next++
		k := keyOf(img)
		resps.Get(k, img)
		exits.Get(k, img)
		enc.Reset(img)
		exits.Record(k, img, 40)
		resps.Record(k, img, [6]int{3})
	}
	for i := 0; i < 2*max; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(40, pass); allocs != 0 {
		t.Errorf("a unique image through all three views allocates %.1f objects, want 0", allocs)
	}
	if exits.Len() != 0 || resps.Len() != 0 {
		t.Fatalf("unique traffic stored entries: %d exit, %d response", exits.Len(), resps.Len())
	}
}
