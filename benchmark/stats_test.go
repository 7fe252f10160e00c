package main

import "testing"

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileIsNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 99, 99}, // rank ⌈0.99·100⌉ = 99, not the maximum
		{100, 100, 100},
		{10, 50, 5},
		{20, 95, 19},
		{21, 95, 20}, // ⌈19.95⌉
		{1, 50, 1},
		{7, 0, 1}, // rank floors at 1
	}
	for _, c := range cases {
		if got := percentile(ascending(c.n), c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{200, 95, 10},
		{199, 95, 9},
		{1000, 99, 10},
		{999, 99, 9},
		{20, 50, 10},
		{19, 50, 9},
		{0, 95, 0},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samples beyond p%v of %d = %d, want %d", c.p, c.n, got, c.beyond)
		}
		if got, want := supported(c.n, c.p), c.beyond >= minTailSamples; got != want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, want)
		}
	}
}

func TestQuietQuartileCountsFromTheBetterEnd(t *testing.T) {
	v := []float64{7, 3, 8, 1, 5, 2, 6, 4} // 1..8: rank ⌈8/4⌉ = 2 from the better end
	if got := quietQuartile(v, lower); got != 2 {
		t.Errorf("lower is better: %v, want 2", got)
	}
	if got := quietQuartile(v, higher); got != 7 {
		t.Errorf("higher is better: %v, want 7", got)
	}
	if got := quietQuartile([]float64{9}, higher); got != 9 {
		t.Errorf("one slice: %v, want 9", got)
	}
	// Slow phases over half the slices move the median, not the quiet quartile.
	calm := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	half := []float64{10, 13, 10, 13, 13, 10, 13, 10}
	if quietQuartile(calm, lower) != quietQuartile(half, lower) || median(calm) == median(half) {
		t.Errorf("quiet quartile %v vs %v, median %v vs %v", quietQuartile(calm, lower), quietQuartile(half, lower), median(calm), median(half))
	}
	if v[0] != 7 {
		t.Error("quietQuartile reordered its argument")
	}
}

func TestMedianAndWorsening(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	lat := metric{Name: "latency", Better: lower}
	rate := metric{Name: "rate", Better: higher}
	if got := worsening(lat, 10, 11); got < 0.0999 || got > 0.1001 {
		t.Errorf("latency 10→11 worsens by %v, want 0.1", got)
	}
	if got := worsening(rate, 10, 11); got > -0.0999 || got < -0.1001 {
		t.Errorf("rate 10→11 worsens by %v, want -0.1", got)
	}
	if got := worsening(rate, 10, 9); got < 0.0999 || got > 0.1001 {
		t.Errorf("rate 10→9 worsens by %v, want 0.1", got)
	}
}
