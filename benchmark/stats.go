package main

import (
	"math"
	"sort"

	"burstsnn/internal/serve"
)

// percentile reads the p-th percentile of an ascending sample by nearest
// rank (rank = ⌈p/100·n⌉), the same rule the server's own summaries use.
func percentile(sorted []float64, p float64) float64 {
	return serve.Percentile(sorted, p)
}

// samplesBeyond is how many samples lie strictly above the p-th
// percentile's nearest rank.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// minTailSamples is the "ten samples beyond" rule: a percentile is
// reported as a gated metric only when at least this many samples lie
// above it, so it is a rank inside the data and not its maximum.
const minTailSamples = 10

// supported reports whether n samples carry the p-th percentile.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= minTailSamples }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietQuartile is the first quartile of v counted from its better end,
// by nearest rank: a quarter of the values are at least this good. The
// host the benchmark runs on is shared and its single-thread speed sags
// by up to a third for seconds at a time (a fixed spin loop shows it, with
// no steal time reported); such a phase only ever makes a slice of a run
// worse. The quiet quartile of the slices holds still through phases that
// cover up to three quarters of a run, where their median follows any
// that covers half.
func quietQuartile(v []float64, better string) float64 {
	s := sort.Float64Slice(append([]float64(nil), v...))
	if better == higher {
		sort.Sort(sort.Reverse(s))
	} else {
		sort.Sort(s)
	}
	return percentile(s, 25)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// worsening is how far b is worse than a as a share of a, by the
// metric's direction (negative when b is better).
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}
