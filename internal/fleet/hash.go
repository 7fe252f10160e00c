// Package fleet is the horizontal scale-out tier above internal/serve:
// a front tier that consistent-hashes requests over a set of worker
// shards (in-process servers or snnserve -worker processes), keeps each
// shard's caches hot for its slice of the image space, supervises worker
// health, and merges per-shard telemetry into fleet-wide /metrics and
// /metrics/prom. Each shard's server autoscales its own replica pools.
//
// Routing keys on coding.HashImage — the same content hash a shard's
// response cache (pixel-verified on every read) keys on, and which ends
// in the same SplitMix64 finalizer as the ring's points — so a shard
// owns a stable slice of the image space and every replay of an image
// lands where its entries live. When the owner
// sheds (429), a bounded-load fallback offers the request to the next
// shards on the ring before giving up, trading one cold cache miss for
// availability.
package fleet

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"burstsnn/internal/mathx"
)

// DefaultVNodes is the virtual-node count per shard on the hash ring.
// 64 points per shard keeps the max/mean load ratio within a few percent
// for the shard counts a single machine runs (≤ NumCPU) while keeping
// ring construction trivial.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over shard indices 0..n-1. Points are
// deterministic (FNV-1a of "shard-<i>/<v>", finalized through
// mathx.SplitMix64 — raw FNV of short sequential labels clusters badly,
// up to 2× arc-share skew at 64 vnodes), so every front tier built
// over the same shard count routes identically — there is no seed and no
// runtime randomness.
//
// A Ring is immutable after construction; rebuilding with n±1 shards
// moves only ~1/n of the key space (the consistent-hashing property the
// stability test pins).
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over shards shards with vnodes points each
// (vnodes <= 0 uses DefaultVNodes).
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: ring needs at least 1 shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, shards*vnodes), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard-%d/%d", s, v)
			r.points = append(r.points, ringPoint{hash: mathx.SplitMix64(h.Sum64()), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break (64-bit FNV collisions are effectively
		// theoretical at these point counts, but the order must not depend
		// on sort internals).
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count the ring was built over.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning key: the first ring point clockwise
// from the key's position.
func (r *Ring) Owner(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].shard
}

// Sequence returns the key's owner followed by the next distinct shards
// clockwise around the ring, up to n entries — the bounded-load fallback
// order. n is clamped to the shard count.
func (r *Ring) Sequence(key uint64, n int) []int {
	if n > r.shards {
		n = r.shards
	}
	if n < 1 {
		n = 1
	}
	seq := make([]int, 0, n)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for probed := 0; probed < len(r.points) && len(seq) < n; probed++ {
		// A linear scan: seq holds at most one entry per shard.
		if p := r.points[(i+probed)%len(r.points)]; !slices.Contains(seq, p.shard) {
			seq = append(seq, p.shard)
		}
	}
	return seq
}
