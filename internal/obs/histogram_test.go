package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le convention: bucket i counts v <= bounds[i], v > bounds[i-1].
	want := []uint64{2, 2, 2, 1} // {0.5,1}, {1.5,2}, {3,4}, {100}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if got := h.Sum(); math.Abs(got-112) > 1e-12 {
		t.Errorf("Sum = %v, want 112", got)
	}
}

func TestHistogramMergeExact(t *testing.T) {
	// Shard observations over several histograms, merge, and check the
	// merged buckets equal a single histogram fed everything.
	const shards = 4
	parts := make([]*Histogram, shards)
	for i := range parts {
		parts[i] = NewDurationHistogram()
	}
	whole := NewDurationHistogram()
	r := uint64(1)
	for i := 0; i < 10_000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		v := 1e-6 * math.Pow(2, float64(r%1600)/100) // 1µs..~65s, log-uniform
		parts[i%shards].Observe(v)
		whole.Observe(v)
	}
	merged := NewDurationHistogram()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	ms, ws := merged.Snapshot(), whole.Snapshot()
	if ms.Count != ws.Count {
		t.Fatalf("merged Count = %d, want %d", ms.Count, ws.Count)
	}
	for i := range ms.Counts {
		if ms.Counts[i] != ws.Counts[i] {
			t.Errorf("merged bucket %d = %d, want %d", i, ms.Counts[i], ws.Counts[i])
		}
	}
	if math.Abs(ms.Sum-ws.Sum) > 1e-9*math.Abs(ws.Sum) {
		t.Errorf("merged Sum = %v, want %v", ms.Sum, ws.Sum)
	}
}

func TestHistogramMergeLayoutMismatch(t *testing.T) {
	if err := NewDurationHistogram().Merge(NewHistogram([]float64{1, 2, 4})); err == nil {
		t.Fatal("merging mismatched layouts succeeded")
	}
	if err := NewHistogram([]float64{1, 2}).Merge(NewHistogram([]float64{1, 3})); err == nil {
		t.Fatal("merging same-length different-bounds layouts succeeded")
	}
}

// TestHistogramQuantileVsExact pins the quantile estimate against the
// exact nearest-rank percentile on synthetic distributions: with √2-wide
// log buckets the estimate must land within one bucket of the exact
// value, i.e. within a factor of √2.
func TestHistogramQuantileVsExact(t *testing.T) {
	distributions := map[string]func(u float64) float64{
		// log-uniform over 10µs..1s
		"loguniform": func(u float64) float64 { return 1e-5 * math.Pow(1e5, u) },
		// heavily skewed: most mass at ~1ms, a 100× tail
		"skewed": func(u float64) float64 {
			if u < 0.95 {
				return 1e-3 * (1 + u)
			}
			return 1e-1 * (1 + u)
		},
		// narrow: everything inside one or two buckets
		"narrow": func(u float64) float64 { return 5e-3 + 1e-4*u },
	}
	for name, gen := range distributions {
		h := NewDurationHistogram()
		exact := make([]float64, 0, 5000)
		r := uint64(42)
		for i := 0; i < 5000; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			v := gen(float64(r%1_000_000) / 1e6)
			h.Observe(v)
			exact = append(exact, v)
		}
		sort.Float64s(exact)
		for _, p := range []float64{50, 90, 99} {
			rank := int(math.Ceil(p / 100 * float64(len(exact))))
			want := exact[rank-1]
			got := h.Quantile(p)
			if got < want/math.Sqrt2-1e-12 || got > want*math.Sqrt2+1e-12 {
				t.Errorf("%s p%v = %v, exact %v: outside one √2 bucket", name, p, got, want)
			}
		}
	}
}

// TestHistSnapshotMergeWire pins the fleet tier's wire-format merge:
// per-shard snapshots round-tripped through JSON and folded into a
// zero-value accumulator must equal the snapshot of one histogram fed
// everything — buckets, count, sum, and the quantile/mean estimates.
func TestHistSnapshotMergeWire(t *testing.T) {
	const shards = 3
	parts := make([]*Histogram, shards)
	for i := range parts {
		parts[i] = NewDurationHistogram()
	}
	whole := NewDurationHistogram()
	r := uint64(7)
	for i := 0; i < 6000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		v := 1e-6 * math.Pow(2, float64(r%1500)/100)
		parts[i%shards].Observe(v)
		whole.Observe(v)
	}
	var merged HistSnapshot
	for _, p := range parts {
		// Round-trip through JSON: the merge must work on what a worker
		// process would actually ship.
		data, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var s HistSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if err := merged.Merge(s); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	ws := whole.Snapshot()
	if merged.Count != ws.Count {
		t.Fatalf("merged Count = %d, want %d", merged.Count, ws.Count)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != ws.Counts[i] {
			t.Errorf("merged bucket %d = %d, want %d", i, merged.Counts[i], ws.Counts[i])
		}
	}
	if math.Abs(merged.Sum-ws.Sum) > 1e-9*math.Abs(ws.Sum) {
		t.Errorf("merged Sum = %v, want %v", merged.Sum, ws.Sum)
	}
	for _, p := range []float64{50, 90, 99} {
		if got, want := merged.Quantile(p), whole.Quantile(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("merged Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got, want := merged.Mean(), whole.Mean(); math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Errorf("merged Mean = %v, want %v", got, want)
	}
}

func TestHistSnapshotMergeMismatch(t *testing.T) {
	a := NewDurationHistogram().Snapshot()
	if err := a.Merge(NewHistogram([]float64{1, 2, 4}).Snapshot()); err == nil {
		t.Fatal("merging mismatched snapshot layouts succeeded")
	}
	b := NewHistogram([]float64{1, 2}).Snapshot()
	if err := b.Merge(NewHistogram([]float64{1, 3}).Snapshot()); err == nil {
		t.Fatal("merging same-length different-bounds snapshots succeeded")
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewDurationHistogram()
	if got := h.Quantile(50); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// Overflow-only: reports the highest finite bound rather than +Inf.
	h.Observe(1e9)
	top := durationBounds[len(durationBounds)-1]
	if got := h.Quantile(99); got != top {
		t.Errorf("overflow Quantile = %v, want %v", got, top)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewDurationHistogram()
	h.ObserveDuration(3 * time.Millisecond)
	if got := h.Mean(); math.Abs(got-3e-3) > 1e-12 {
		t.Errorf("Mean = %v, want 0.003", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewDurationHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-4 * float64(1+(w+i)%32))
				if i%100 == 0 {
					h.Snapshot()
					h.Quantile(99)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}
