package coding

import (
	"math"
	"math/bits"
	"testing"

	"burstsnn/internal/dataset"
)

// textures returns seed's dataset.SynthTextures test split, perClass
// images per class.
func textures(seed uint64, perClass int) []dataset.Sample {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass, cfg.Seed = 0, perClass, seed
	return dataset.SynthTextures(cfg).Test
}

// stamp sets pixel 0 the way the repository benchmark's unique traffic
// does in cycle k ≥ 1; k = 0 restores the drawn value orig.
func stamp(img []float64, orig float64, k uint32) {
	img[0] = orig
	if k > 0 {
		img[0] = float64(bits.Reverse32(k)) / (1 << 32)
	}
}

// TestHashImageDistinct: no two distinct images among 205k — five seeds'
// texture test splits, each image also stamped 40 times like the
// benchmark's unique traffic — share a HashImage. Equal hashes of equal
// pixels (a stamp reproducing another image) would be duplicates, not
// collisions; the check tells them apart by regenerating both.
func TestHashImageDistinct(t *testing.T) {
	const seeds, perClass, stamps = 5, 100, 41
	type where struct {
		seed, idx int
		k         uint32
	}
	sets := make([][]dataset.Sample, seeds)
	seen := make(map[uint64]where, seeds*perClass*10*stamps)
	image := func(w where) []float64 {
		img := append([]float64(nil), sets[w.seed][w.idx].Image...)
		stamp(img, img[0], w.k)
		return img
	}
	distinct := 0
	for s := range sets {
		sets[s] = textures(uint64(1000+s), perClass)
		for idx, smp := range sets[s] {
			img := smp.Image
			orig := img[0]
			for k := uint32(0); k < stamps; k++ {
				stamp(img, orig, k)
				h := HashImage(img)
				prev, dup := seen[h]
				if !dup {
					seen[h] = where{s, idx, k}
					distinct++
					continue
				}
				img[0] = orig // image() copies from the unstamped set
				a, b := image(prev), image(where{s, idx, k})
				if !SameImage(a, b) {
					t.Fatalf("HashImage collision %#x: seed %d image %d stamp %d vs %+v", h, s, idx, k, prev)
				}
			}
			img[0] = orig
		}
	}
	if distinct < 200000 {
		t.Fatalf("only %d distinct images hashed, want ≥ 200k", distinct)
	}
}

// TestHashImageAvalanche: flipping any one bit of a few pixel words —
// first, last, the tail lane, a middle one — always changes the hash
// (every round is a bijection of the word) and flips about half of the
// 64 output bits (SplitMix64's avalanche).
func TestHashImageAvalanche(t *testing.T) {
	set := textures(7, 1)
	for _, n := range []int{768, 771} { // 771: three pixels in the tail
		img := append([]float64(nil), set[0].Image...)
		for len(img) < n {
			img = append(img, 0.25)
		}
		base := HashImage(img)
		flipped, trials := 0, 0
		for _, p := range []int{0, 1, 2, 3, n / 2, n - 4, n - 2, n - 1} {
			orig := img[p]
			for b := 0; b < 64; b++ {
				img[p] = math.Float64frombits(math.Float64bits(orig) ^ 1<<b)
				h := HashImage(img)
				if h == base {
					t.Fatalf("n=%d: flipping bit %d of pixel %d left the hash at %#x", n, b, p, h)
				}
				flipped += bits.OnesCount64(h ^ base)
				trials++
			}
			img[p] = orig
		}
		mean := float64(flipped) / float64(trials)
		if mean < 20 || mean > 44 {
			t.Errorf("n=%d: a one-bit flip changed %.1f of 64 hash bits on average, want ≈32", n, mean)
		}
		t.Logf("n=%d: a one-bit flip changes %.2f of 64 hash bits on average", n, mean)
	}
	if HashImage([]float64{0, 0}) == HashImage([]float64{0, 0, 0}) {
		t.Error("the length is not mixed in: two and three zero pixels hash alike")
	}
}

// TestRateSeedUnchanged pins the rate encoders' reseed to the FNV-1a
// values recorded at the parent of the HashImage change: a different
// value would redraw every rate-coded spike train, and with them the rate
// rows of Tables 1 and 2 and of serve's outcomes golden.
func TestRateSeedUnchanged(t *testing.T) {
	img := randomImage(29, 768)
	img[5] = math.Copysign(0, -1)
	for _, c := range []struct {
		image []float64
		want  uint64
	}{
		{img, 0xe97a2e378f98f709},
		{[]float64{0.3, 0.6}, 0xc8db5b55fa1960d5},
		{nil, 0xcbf29ce484222325},
	} {
		if got := fnv1aImage(c.image); got != c.want {
			t.Errorf("fnv1aImage of %d pixels = %#x, want %#x", len(c.image), got, c.want)
		}
	}
}

func BenchmarkHashImage(b *testing.B) {
	img := textures(7, 1)[0].Image
	b.SetBytes(int64(8 * len(img)))
	for b.Loop() {
		HashImage(img)
	}
}
