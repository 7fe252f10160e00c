package fleet

import (
	"math/bits"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/dataset"
)

// lcg yields the deterministic key stream the distribution tests share.
func lcg(r uint64) uint64 { return r*6364136223846793005 + 1442695040888963407 }

// TestRingBalance bounds the load skew: over 20k uniform keys and 8
// shards, every shard's share must stay near 1/8. With 64 vnodes the arc
// lengths concentrate well; the tolerance (±35% of the mean) is loose
// enough to be seed-independent yet tight enough to catch a broken point
// distribution (a naive modulo-on-first-byte ring fails it immediately).
// A chi-square-style aggregate check bounds the overall imbalance too.
func TestRingBalance(t *testing.T) {
	const shards, keys = 8, 20000
	r, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, shards)
	k := uint64(3)
	for i := 0; i < keys; i++ {
		k = lcg(k)
		counts[r.Owner(k)]++
	}
	mean := float64(keys) / shards
	chi2 := 0.0
	for s, c := range counts {
		if c < mean*0.65 || c > mean*1.35 {
			t.Errorf("shard %d owns %v keys, outside [%v, %v]", s, c, mean*0.65, mean*1.35)
		}
		d := c - mean
		chi2 += d * d / mean
	}
	// Unlike a uniform multinomial (chi2 ~ 14 at p=0.05, 7 df), most of
	// the statistic here is the vnode arc-share variance itself: with 64
	// points per shard the share std is ~1/√64 of the mean, which puts the
	// expected statistic near keys·Σ(Δshare)² ≈ 300. A clustered ring
	// (e.g. unfinalized FNV of the short vnode labels) scores >7000.
	if chi2 > 1000 {
		t.Errorf("chi-square statistic %v too large (counts %v)", chi2, counts)
	}
}

// TestRingStability pins the consistent-hashing property: growing 8
// shards to 9 must move only ~1/9 of the keys (bounded at 25% to stay
// robust), and every moved key must land on the ring, not shuffle between
// old shards arbitrarily — keys that stay must keep their exact owner.
func TestRingStability(t *testing.T) {
	const keys = 20000
	r8, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := NewRing(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	k := uint64(11)
	for i := 0; i < keys; i++ {
		k = lcg(k)
		a, b := r8.Owner(k), r9.Owner(k)
		if a != b {
			moved++
			if b != 8 {
				// A key that moves during a grow may only move to the new
				// shard: its arc was claimed by one of shard 8's points.
				t.Fatalf("key %x moved %d -> %d, not to the new shard", k, a, b)
			}
		}
	}
	frac := float64(moved) / keys
	if frac == 0 {
		t.Fatal("no keys moved when adding a shard")
	}
	if want := 1.0 / 9; frac > 0.25 {
		t.Errorf("grow 8->9 moved %.1f%% of keys, want ~%.1f%% (<25%%)", frac*100, want*100)
	}
}

// TestRingBalanceImageKeys is TestRingBalance's bound on the keys the
// front really routes: coding.HashImage of 20k texture images (2,000
// test images, each as drawn and stamped nine times the way the
// repository benchmark's unique traffic stamps pixel 0), for every shard
// count from 2 to 8.
func TestRingBalanceImageKeys(t *testing.T) {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass = 0, 200
	var keys []uint64
	for _, s := range dataset.SynthTextures(cfg).Test {
		img := s.Image
		keys = append(keys, coding.HashImage(img))
		for k := uint32(1); k < 10; k++ {
			img[0] = float64(bits.Reverse32(k)) / (1 << 32)
			keys = append(keys, coding.HashImage(img))
		}
	}
	for shards := 2; shards <= 8; shards++ {
		r, err := NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, shards)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		mean := float64(len(keys)) / float64(shards)
		for s, c := range counts {
			if c < mean*0.65 || c > mean*1.35 {
				t.Errorf("%d shards: shard %d owns %v image keys, outside [%v, %v]", shards, s, c, mean*0.65, mean*1.35)
			}
		}
	}
}

func TestRingDeterminism(t *testing.T) {
	a, _ := NewRing(4, 16)
	b, _ := NewRing(4, 16)
	k := uint64(99)
	for i := 0; i < 1000; i++ {
		k = lcg(k)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings built identically disagree on key %x", k)
		}
	}
}

func TestRingSequence(t *testing.T) {
	r, _ := NewRing(4, 16)
	k := uint64(17)
	for i := 0; i < 200; i++ {
		k = lcg(k)
		seq := r.Sequence(k, 3)
		if len(seq) != 3 {
			t.Fatalf("Sequence length %d, want 3", len(seq))
		}
		if seq[0] != r.Owner(k) {
			t.Fatalf("Sequence[0] = %d, Owner = %d", seq[0], r.Owner(k))
		}
		seen := map[int]bool{}
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("Sequence repeats shard %d: %v", s, seq)
			}
			seen[s] = true
		}
	}
	// Clamped to the shard count and floored at 1.
	if got := r.Sequence(42, 10); len(got) != 4 {
		t.Fatalf("Sequence(10) over 4 shards has %d entries", len(got))
	}
	if got := r.Sequence(42, 0); len(got) != 1 {
		t.Fatalf("Sequence(0) has %d entries, want 1", len(got))
	}
	if err := func() error { _, err := NewRing(0, 0); return err }(); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
}
