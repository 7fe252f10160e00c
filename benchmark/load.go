package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// windowSpec is one phase of a closed-loop run. The callers never pause
// between phases; a window only decides which replies are recorded.
type windowSpec struct {
	dur time.Duration
	// record keeps the window's replies (warm-up windows do not).
	record bool
	// traced additionally keeps one span record per request.
	traced bool
}

// reqSpans is the traced run's record of one request: the benchmark's
// own calls around the program, one id per request, kept in memory and
// written out when the run ends.
type reqSpans struct {
	id    uint64
	start time.Duration // since the driver started
	// Durations of generate, marshal, round trip (or the Classify call),
	// unmarshal and verify, in that order.
	spans [numSpans]time.Duration
}

const (
	spanGen = iota
	spanMarshal
	spanRoundtrip
	spanUnmarshal
	spanVerify
	numSpans
)

var spanNames = [numSpans]string{"generate", "marshal", "roundtrip", "unmarshal", "verify"}

// sample is one reply kept for the output check.
type sample struct {
	index      uint64
	prediction int
}

// slice is the unit the time-based metrics are taken over: each is
// computed per one-second slice of the window and reported as the quiet
// quartile of the slices (see quietQuartile), so the seconds in which
// something else slowed the host's CPUs do not move the result.
const slice = time.Second

// slicing splits a window into whole slices (one shorter slice for a
// window under a second, as the tests use).
func slicing(dur time.Duration) (n int, length time.Duration) {
	n = max(1, int(dur/slice))
	return n, dur / time.Duration(n)
}

// tally is what one caller saw in one window.
type tally struct {
	ok, failed    int
	labelHits     int
	steps, spikes int64
	// latenciesMs holds the OK replies' latencies, one list per slice.
	latenciesMs  [][]float64
	samples      []sample
	spans        []reqSpans
	firstFailure error
}

// windowResult is one recorded window, merged over the callers.
type windowResult struct {
	tally
	elapsed      time.Duration
	sliceLen     time.Duration
	before, next view
	// cpuSeconds is the CPU time each slice cost (see sut.cpuSeconds).
	cpuSeconds []float64
	// allMs is every slice's latencies in one ascending list.
	allMs []float64
}

func (w *windowResult) attempted() int { return w.ok + w.failed }

// perSlice evaluates f on every slice's ascending latencies and that
// slice's CPU seconds.
func (w *windowResult) perSlice(f func(latenciesMs []float64, cpuSeconds float64) float64) []float64 {
	out := make([]float64, len(w.latenciesMs))
	for i, l := range w.latenciesMs {
		out[i] = f(l, w.cpuSeconds[i])
	}
	return out
}

// drive runs the closed loop: callers goroutines each send their next
// request when the reply to the last one arrives, through every window
// in turn. It returns one result per recorded window.
func drive(ctx context.Context, s *sut, tr *traffic, callers int, windows []windowSpec) ([]*windowResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// current is the index of the window replies are being recorded into,
	// -1 between windows and during warm-up.
	var current atomic.Int64
	current.Store(-1)
	// began[w] is when window w started, in ns since origin.
	began := make([]atomic.Int64, len(windows))
	var next atomic.Uint64
	tallies := make([][]tally, callers)
	origin := time.Now()
	sliceCount, sliceLen := make([]int, len(windows)), make([]time.Duration, len(windows))
	for w, spec := range windows {
		sliceCount[w], sliceLen[w] = slicing(spec.dur)
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		tallies[c] = make([]tally, len(windows))
		for w := range windows {
			tallies[c][w].latenciesMs = make([][]float64, sliceCount[w])
		}
		wg.Add(1)
		go func(mine []tally) {
			defer wg.Done()
			cl := s.newCaller()
			cl.scratch = make([]float64, tr.inputSize())
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				t0 := time.Now()
				image, label := tr.request(i, cl.scratch)
				res, err := cl.classify(ctx, image)
				if err == nil {
					err = wellFormed(res)
				}
				t1 := time.Now()
				w := current.Load()
				if w < 0 || (err != nil && ctx.Err() != nil) {
					continue
				}
				t := &mine[w]
				if err != nil {
					t.failed++
					if t.firstFailure == nil {
						t.firstFailure = err
					}
					continue
				}
				t.ok++
				if res.Prediction == label {
					t.labelHits++
				}
				t.steps += int64(res.Steps)
				t.spikes += int64(res.Spikes)
				at := min(int((t1.Sub(origin)-time.Duration(began[w].Load()))/sliceLen[w]), sliceCount[w]-1)
				t.latenciesMs[at] = append(t.latenciesMs[at], float64(cl.decoded.Sub(cl.began))/float64(time.Millisecond))
				t.samples = append(t.samples, sample{index: i, prediction: res.Prediction})
				if windows[w].traced {
					t.spans = append(t.spans, reqSpans{
						id:    i,
						start: t0.Sub(origin),
						spans: [numSpans]time.Duration{
							cl.began.Sub(t0), cl.sent.Sub(cl.began), cl.received.Sub(cl.sent),
							cl.decoded.Sub(cl.received), t1.Sub(cl.decoded),
						},
					})
				}
			}
		}(tallies[c])
	}

	results := make([]*windowResult, len(windows))
	var driveErr error
	for w, spec := range windows {
		if !spec.record {
			if !sleep(ctx, spec.dur) {
				driveErr = ctx.Err()
				break
			}
			continue
		}
		r := &windowResult{sliceLen: sliceLen[w]}
		results[w] = r
		if r.before, driveErr = s.scrape(); driveErr != nil {
			break
		}
		var cpu, cpuNext float64
		if cpu, driveErr = s.cpuSeconds(); driveErr != nil {
			break
		}
		start := time.Now()
		began[w].Store(int64(start.Sub(origin)))
		current.Store(int64(w))
		for k := 1; k <= sliceCount[w] && driveErr == nil; k++ {
			if !sleep(ctx, time.Until(start.Add(time.Duration(k)*sliceLen[w]))) {
				driveErr = ctx.Err()
			} else if cpuNext, driveErr = s.cpuSeconds(); driveErr == nil {
				r.cpuSeconds = append(r.cpuSeconds, cpuNext-cpu)
				cpu = cpuNext
			}
		}
		current.Store(-1)
		r.elapsed = time.Since(start)
		if driveErr != nil {
			break
		}
		if r.next, driveErr = s.scrape(); driveErr != nil {
			break
		}
	}
	cancel()
	wg.Wait()
	if driveErr != nil {
		return nil, driveErr
	}

	var recorded []*windowResult
	for w, r := range results {
		if r == nil {
			continue
		}
		for c := range tallies {
			r.merge(&tallies[c][w])
		}
		for _, l := range r.latenciesMs {
			sort.Float64s(l)
			r.allMs = append(r.allMs, l...)
		}
		sort.Float64s(r.allMs)
		sort.Slice(r.samples, func(a, b int) bool { return r.samples[a].index < r.samples[b].index })
		recorded = append(recorded, r)
	}
	return recorded, nil
}

func (t *tally) merge(o *tally) {
	t.ok += o.ok
	t.failed += o.failed
	t.labelHits += o.labelHits
	t.steps += o.steps
	t.spikes += o.spikes
	if t.latenciesMs == nil {
		t.latenciesMs = make([][]float64, len(o.latenciesMs))
	}
	for i, l := range o.latenciesMs {
		t.latenciesMs[i] = append(t.latenciesMs[i], l...)
	}
	t.samples = append(t.samples, o.samples...)
	t.spans = append(t.spans, o.spans...)
	if t.firstFailure == nil {
		t.firstFailure = o.firstFailure
	}
}

// sleep waits for d, or returns false early if ctx ends.
func sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// prime makes every replay image a response-cache entry before the
// clock starts: three full passes (first sighting, promotion, first hit)
// with a barrier between passes and enough callers that batches fill.
func prime(ctx context.Context, s *sut, tr *traffic) error {
	n := uint64(len(tr.base))
	for pass := 0; pass < 3; pass++ {
		var next atomic.Uint64
		var wg sync.WaitGroup
		errs := make(chan error, primeCallers)
		for c := 0; c < primeCallers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := s.newCaller()
				for {
					i := next.Add(1) - 1
					if i >= n || ctx.Err() != nil {
						return
					}
					image, _ := tr.request(i, nil)
					if _, err := cl.classify(ctx, image); err != nil {
						errs <- fmt.Errorf("priming image %d: %w", i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Drop the priming connections so the measured loop opens its own.
	s.transport.CloseIdleConnections()
	return nil
}

// spanMeans averages each span kind over a window's requests, in ns.
func spanMeans(spans []reqSpans) [numSpans]float64 {
	var out [numSpans]float64
	if len(spans) == 0 {
		return out
	}
	for _, r := range spans {
		for k, d := range r.spans {
			out[k] += float64(d)
		}
	}
	for k := range out {
		out[k] /= float64(len(spans))
	}
	return out
}

// writeSpans writes the traced window's spans as CSV: one row per span,
// five rows per request id.
func writeSpans(path string, spans []reqSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "request,span,start_ns,duration_ns")
	for _, r := range spans {
		at := r.start
		for k, d := range r.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d\n", r.id, spanNames[k], at.Nanoseconds(), d.Nanoseconds())
			at += d
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
