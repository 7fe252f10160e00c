package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burstsnn/internal/obs"
)

// assertInBucketOf requires a millisecond percentile estimate to lie in
// the duration bucket (lower, upper] that holds the exact value.
func assertInBucketOf(t *testing.T, p, gotMs, exactMs float64) {
	t.Helper()
	bounds := obs.NewDurationHistogram().Snapshot().Bounds
	i := sort.SearchFloat64s(bounds, exactMs/1e3)
	lower := 0.0
	if i > 0 {
		lower = bounds[i-1] * 1e3
	}
	if upper := bounds[i] * 1e3; gotMs < lower || gotMs > upper {
		t.Errorf("p%v = %v ms, want inside (%v, %v], the bucket of the exact %v ms", p, gotMs, lower, upper, exactMs)
	}
}

// TestPercentileNearestRank pins the standard ceil nearest-rank method,
// rank = ⌈p/100·n⌉. The old round-half-up rank read one sample low
// whenever p/100·n had a fractional part below 0.5 (e.g. p99 over 4096
// samples).
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1) // sorted 1..n, so value == 1-based rank
		}
		return s
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 99, 0},
		{"n=1 p50", seq(1), 50, 1},
		{"n=1 p90", seq(1), 90, 1},
		{"n=1 p99", seq(1), 99, 1},
		{"n=4 p50", seq(4), 50, 2},
		{"n=4 p90", seq(4), 90, 4},
		{"n=100 p50", seq(100), 50, 50},
		{"n=100 p90", seq(100), 90, 90},
		{"n=100 p99", seq(100), 99, 99},
		{"n=100 p100", seq(100), 100, 100},
		// 0.99·4096 = 4055.04, so the nearest rank is 4056; the old
		// rounding read 4055.
		{"n=4096 p50", seq(4096), 50, 2048},
		{"n=4096 p90", seq(4096), 90, 3687},
		{"n=4096 p99", seq(4096), 99, 4056},
		{"n=4096 p0", seq(4096), 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Percentile(c.sorted, c.p); got != c.want {
				t.Errorf("Percentile(n=%d, p=%v) = %v, want %v", len(c.sorted), c.p, got, c.want)
			}
		})
	}
}

// TestSnapshotDoesNotBlockObserve floods the metrics with concurrent
// Observes while scraping Snapshots, as a /metrics endpoint under load
// does; it guards liveness and the mid-flight invariants of the lock-free
// counters (and runs under -race in CI).
func TestSnapshotDoesNotBlockObserve(t *testing.T) {
	m := NewMetrics()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			m.Observe(Outcome{Steps: 10, HiddenSpikes: 3, EarlyExit: true}, time.Duration(i)*time.Microsecond)
		}
	}()
	for i := 0; i < 200; i++ {
		if s := m.Snapshot(); s.EarlyExits > s.Requests || s.EarlyExitRate > 1 || s.MeanSteps > 10 {
			t.Fatalf("mid-flight snapshot counts an outcome before its request: %+v", s)
		}
	}
	<-done
	s := m.Snapshot()
	if s.Requests != 2000 || s.MeanSteps != 10 || s.MeanSpikes != 3 {
		t.Fatalf("requests/means = %d/%v/%v, want 2000/10/3", s.Requests, s.MeanSteps, s.MeanSpikes)
	}
	// Latencies were 0..1999 µs: rank 1980 of 2000 is 1.979 ms.
	assertInBucketOf(t, 99, s.P99Ms, 1.979)
}

// TestMetricsBatchGauges pins the batch gauge a microbatch moves — the
// forming outcomes. The retired lockstep, dedupe and encoder-cache
// fields stay zero whatever is observed: readers that still difference
// them see nothing move.
func TestMetricsBatchGauges(t *testing.T) {
	m := NewMetrics()
	m.ObserveFormWait(FormJoined)
	m.ObserveFormWait(FormSkipped)
	m.ObserveFormWait(FormSkipped)
	m.Observe(Outcome{Steps: 9}, time.Millisecond)
	s := m.Snapshot()
	if want := (FormWaits{Joined: 1, Skipped: 2}); s.FormWaits != want {
		t.Errorf("form waits = %+v, want %+v", s.FormWaits, want)
	}
	if s.Batches != 0 || s.MeanBatchOccupancy != 0 || s.ExitHistoryHits != 0 || s.ExitHistoryMisses != 0 ||
		s.DedupedRequests != 0 || s.EncoderCacheHits != 0 || s.EncoderCacheMisses != 0 {
		t.Errorf("retired fields moved: %+v", s)
	}
}

// TestStripedObserveCountsExact floods Observe from many goroutines and
// checks nothing is lost (the name predates the atomics: the accumulator
// was once lock-striped).
func TestStripedObserveCountsExact(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Observe(Outcome{Steps: 7, HiddenSpikes: 3, EarlyExit: true}, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Requests != workers*per {
		t.Fatalf("requests = %d, want %d", s.Requests, workers*per)
	}
	if s.MeanSteps != 7 || s.MeanSpikes != 3 || s.EarlyExitRate != 1 {
		t.Fatalf("aggregates wrong: %+v", s)
	}
	assertInBucketOf(t, 50, s.P50Ms, 1)
	assertInBucketOf(t, 99, s.P99Ms, 1)
	if total := s.Stages["total"]; total.Count != workers*per {
		t.Fatalf("total stage count = %d, want %d", total.Count, workers*per)
	}
}

// BenchmarkObserveDuringScrape measures Observe latency while a
// background goroutine scrapes Snapshot in a tight loop: the two share
// no lock, so a scrape costs an Observe nothing but cache traffic.
func BenchmarkObserveDuringScrape(b *testing.B) {
	m := NewMetrics()
	var stop atomic.Bool
	scraping := make(chan struct{})
	go func() {
		close(scraping)
		for !stop.Load() {
			m.Snapshot()
		}
	}()
	<-scraping
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(Outcome{Steps: 10, HiddenSpikes: 5}, time.Millisecond)
	}
	b.StopTimer()
	stop.Store(true)
}

// BenchmarkSnapshot measures a full scrape: the atomic loads plus eight
// bucket copies and their digests, whatever the request count.
func BenchmarkSnapshot(b *testing.B) {
	m := NewMetrics()
	for i := 0; i < 4096; i++ {
		m.Observe(Outcome{Steps: 10}, time.Duration(i)*time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Snapshot()
	}
}

// BenchmarkObserveStages pins the per-request cost of the stage
// histograms on the hot path: five bucket searches plus atomic adds (the
// sixth, the total span, is Observe's), no locks, no allocations (the
// benchmark fails the alloc report if that regresses).
func BenchmarkObserveStages(b *testing.B) {
	m := NewMetrics()
	st := obs.StageTimes{
		Queue:    500 * time.Microsecond,
		Form:     100 * time.Microsecond,
		Encode:   50 * time.Microsecond,
		Simulate: 3 * time.Millisecond,
		Readout:  20 * time.Microsecond,
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.ObserveStages(st)
		}
	})
}
