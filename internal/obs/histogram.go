package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with atomic buckets: Observe is
// lock-free and allocation-free (one binary search over the shared
// bounds, three atomic adds), Merge is element-wise addition for any two
// histograms built over the same bounds, and quantile estimates
// interpolate inside the located bucket, so the estimate's error is
// bounded by the bucket's width (a factor of 2^(1/2) for the duration
// layout) regardless of how many observations merged into it.
//
// Bucket i counts observations v with v <= bounds[i] and
// v > bounds[i-1]; the final bucket (index len(bounds)) is the +Inf
// overflow. This is exactly Prometheus's `le` convention, so exposition
// is a cumulative sum over the counts, no re-bucketing.
//
// Concurrent Observe/Merge/Snapshot are safe. A snapshot taken during
// concurrent observation is not a point-in-time atomic cut across
// buckets — counts may differ by the handful of in-flight observations —
// which is the standard (and Prometheus-accepted) trade for a lock-free
// record path.
type Histogram struct {
	bounds []float64 // ascending upper bounds (le); +Inf bucket implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-add
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is retained (not copied) and must not be mutated:
// histograms sharing a bounds slice are mergeable by construction.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v <= %v",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// durationBounds spans 1µs..~67s at two buckets per octave (√2 growth,
// ±41% worst-case bucket resolution): 53 bounds + overflow. Shared by
// every duration histogram so stage histograms merge across models and
// shards.
var durationBounds = func() []float64 {
	b := make([]float64, 53)
	for i := range b {
		b[i] = 1e-6 * math.Pow(2, float64(i)/2)
	}
	return b
}()

// NewDurationHistogram returns a histogram over the shared log-scale
// duration layout (1µs to ~67s upper bound, √2-spaced buckets), observed
// in seconds.
func NewDurationHistogram() *Histogram { return NewHistogram(durationBounds) }

// occupancyBounds resolves every lane count exactly up to 16 (the
// serving MaxBatch regime), then coarsens toward the 64-lane bitmask
// cap.
var occupancyBounds = func() []float64 {
	b := make([]float64, 0, 20)
	for i := 1; i <= 16; i++ {
		b = append(b, float64(i))
	}
	return append(b, 24, 32, 48, 64)
}()

// NewOccupancyHistogram returns a histogram shaped for batch lane
// occupancy: exact buckets 1..16, then 24/32/48/64 up to the lockstep
// lane cap.
func NewOccupancyHistogram() *Histogram { return NewHistogram(occupancyBounds) }

// stepErrorBounds resolves small step errors exactly (le=0 counts exact
// predictions) and doubles out to the serving step-budget scale.
var stepErrorBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewStepErrorHistogram returns a histogram shaped for absolute
// step-count errors (predicted-vs-actual exit steps): the le=0 bucket
// counts exact predictions, then power-of-two bounds to 256 steps.
func NewStepErrorHistogram() *Histogram { return NewHistogram(stepErrorBounds) }

// Observe records one value. Lock-free and allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) if none
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the exposition unit).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 { return h.Snapshot().Mean() }

// Merge adds o's buckets into h. The histograms must share a bucket
// layout (identical bounds — trivially true for histograms built from
// the same New*Histogram constructor).
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: merging %d-bucket histogram into %d-bucket one",
			len(o.bounds)+1, len(h.bounds)+1)
	}
	if &h.bounds[0] != &o.bounds[0] { // same backing array is the common case
		for i := range h.bounds {
			if h.bounds[i] != o.bounds[i] {
				return fmt.Errorf("obs: histogram bucket layouts differ at bound %d: %v vs %v",
					i, h.bounds[i], o.bounds[i])
			}
		}
	}
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+o.Sum())) {
			return nil
		}
	}
}

// Quantile is Snapshot().Quantile(p): the one estimator, over a copy of
// the buckets taken while concurrent Observes run.
func (h *Histogram) Quantile(p float64) float64 { return h.Snapshot().Quantile(p) }

// HistSnapshot is a point-in-time bucket view for exposition: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the implicit +Inf
// bucket as the final count. It is also the histogram's wire format: the
// JSON shape round-trips through encoding/json, so a worker process can
// ship its stage histograms to a fleet front tier, which merges them
// (Merge) and reads bucket-resolution estimates (Mean, Quantile) exactly
// like a live Histogram would report them.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds (le); the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64  `json:"counts"` // len(Bounds)+1 per-bucket counts
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Merge adds o's buckets into s. Like Histogram.Merge, the snapshots
// must share a bucket layout; a zero-value s (no bounds) adopts o's
// layout, so a merge accumulator can start empty and fold shards in.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Count, s.Sum = o.Count, o.Sum
		return nil
	}
	if len(s.Bounds) != len(o.Bounds) || len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merging %d-bucket snapshot into %d-bucket one",
			len(o.Counts), len(s.Counts))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("obs: snapshot bucket layouts differ at bound %d: %v vs %v",
				i, s.Bounds[i], o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count > 0 {
		return s.Sum / float64(s.Count)
	}
	return 0
}

// Quantile estimates the p-th percentile (p in [0,100]) by nearest rank
// over the buckets with linear interpolation inside the located bucket.
// The estimate lands inside the bucket holding the exact nearest-rank
// value, so its error is bounded by that bucket's width, and merged
// per-shard snapshots report what one histogram fed every observation
// would. The total is taken from the buckets themselves, so rank and
// cumulative counts agree even for a snapshot cut during Observes.
// Returns 0 when empty; the overflow bucket reports the highest finite
// bound.
func (s HistSnapshot) Quantile(p float64) float64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range s.Counts {
		if cum+c < rank {
			cum += c
			continue
		}
		if i == len(s.Bounds) { // overflow bucket: no finite upper bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return lower + frac*(s.Bounds[i]-lower)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}
