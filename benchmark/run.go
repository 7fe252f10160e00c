package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"burstsnn/internal/experiments"
	"burstsnn/internal/serve"
)

// Every run has the same shape on every commit: bring the system up
// setupReps times (median → setup_s), prime the caches of a replay
// workload, warm up, then record. Warm-up plus everything a run records
// stays well under the one-minute response-cache TTL (spec_test.go holds
// BENCHMARK.json's run length to that), so no hot entry expires inside a
// recorded window.
const (
	warmup    = 2 * time.Second
	setupReps = 5
	// checkSamples is how many replies of the measured window the output
	// check re-derives on the private replica.
	checkSamples = 512
	// accuracyFloor fails a run whose predictions stop matching labels.
	accuracyFloor = 0.98
)

// options selects one run.
type options struct {
	workload workload
	seed     uint64
	measure  time.Duration
	warmup   time.Duration
	// traced adds spans around the benchmark's own calls, an untraced
	// reference window before the traced one (their ratio is the tracing
	// overhead), and the ladder; it reports the per-layer metrics instead
	// of the end-to-end ones.
	traced bool
	// setups is how many times the system is brought up (the median is
	// setup_s); only the last one is measured.
	setups int
	// spansOut receives the traced window's spans ("" keeps them in
	// memory only).
	spansOut string
	log      io.Writer
}

// check is one output-correctness or run-validity assertion.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is one finished run.
type report struct {
	Workload  string
	Seed      uint64
	Traced    bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Checks    []check
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// run executes one workload once and tears everything down again,
// whatever path it leaves by.
func run(ctx context.Context, opt options) (rep *report, err error) {
	w := opt.workload
	logf := func(format string, args ...any) {
		if opt.log != nil {
			fmt.Fprintf(opt.log, "[%s] "+format+"\n", append([]any{w.Name}, args...)...)
		}
	}
	goroutines := runtime.NumGoroutine()

	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(root, ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	workerBin := ""
	if w.transport == httpFleet || opt.traced {
		logf("building snnserve")
		if workerBin, err = buildWorker(ctx, root, tmp); err != nil {
			return nil, err
		}
	}

	// One core for the whole system, from before set-up (pool and queue
	// sizes follow GOMAXPROCS at registration) until the window is over.
	cpu, release, err := onOneCore(w.transport == httpFleet)
	if err != nil {
		return nil, err
	}
	defer release()
	if cpu >= 0 {
		logf("system under test on one P per process, all pinned to CPU %d", cpu)
	}

	// Set-up, several times over on fresh model directories; the last
	// system stays up and is the one measured.
	var s *sut
	var modelDir string
	setupSeconds := make([]float64, 0, opt.setups)
	for i := 0; i < opt.setups; i++ {
		if s != nil {
			s.close()
		}
		if modelDir, err = os.MkdirTemp(tmp, "models-"); err != nil {
			return nil, err
		}
		began := time.Now()
		if s, err = bringUp(ctx, w.transport, modelDir, workerBin); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupSeconds = append(setupSeconds, time.Since(began).Seconds())
	}
	defer func() { s.close() }()
	logf("set up %d× in %.3fs (median of %.3f)", opt.setups, median(setupSeconds), setupSeconds)

	tr := newTraffic(opt.seed, w.images, w.unique)
	if !w.unique {
		if err := prime(ctx, s, tr); err != nil {
			return nil, err
		}
	}
	windows := []windowSpec{{dur: opt.warmup}}
	if opt.traced {
		windows = append(windows, windowSpec{dur: opt.measure / 2, record: true})
	}
	windows = append(windows, windowSpec{dur: opt.measure, record: true, traced: opt.traced})
	logf("closed loop: %d callers, %v warm-up, %v measured", w.callers, opt.warmup, opt.measure)
	recorded, err := drive(ctx, s, tr, w.callers, windows)
	if err != nil {
		return nil, err
	}

	win := recorded[len(recorded)-1]

	// Live heap of this process after a forced collection, with the
	// system still up (its caches, pools and rings are what is counted).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	rep = &report{
		Workload: w.Name, Seed: opt.seed, Traced: opt.traced,
		Attempted: win.attempted(), Failed: win.failed,
	}
	if win.firstFailure != nil {
		logf("first failed request: %v", win.firstFailure)
	}
	if win.ok == 0 {
		return nil, fmt.Errorf("no request succeeded in the measured window (first failure: %v)", win.firstFailure)
	}
	layer := windowMetrics(win, w)
	if !opt.traced {
		// One value per one-second slice; the quiet quartile of each is the
		// metric. The slices go to the log: they show what the host did.
		rate := win.perSlice(func(l []float64, _ float64) float64 { return float64(len(l)) / win.sliceLen.Seconds() })
		p50 := win.perSlice(func(l []float64, _ float64) float64 { return percentile(l, 50) })
		cpu := win.perSlice(func(l []float64, cpu float64) float64 { return ratio(1e3*cpu, float64(len(l))) })
		logf("slices req_per_s      %.0f", rate)
		logf("slices latency_p50_ms %.3f", p50)
		logf("slices cpu_ms_per_req %.3f", cpu)
		rep.Metrics = map[string]float64{
			"setup_s":        median(setupSeconds),
			"req_per_s":      quietQuartile(rate, higher),
			"latency_p50_ms": quietQuartile(p50, lower),
			"ok_share":       float64(win.ok) / float64(win.attempted()),
			"accuracy":       float64(win.labelHits) / float64(win.ok),
			"steps_per_req":  float64(win.steps) / float64(win.ok),
			"spikes_per_req": float64(win.spikes) / float64(win.ok),
			"cpu_ms_per_req": quietQuartile(cpu, lower),
			"live_heap_mb":   float64(ms.HeapAlloc) / (1 << 20),
		}
	}
	// The system is stopped before the output check so that nothing else
	// allocates while the check counts serve.Classify's allocations.
	s.close()
	release()
	allocs, err := checkOutputs(rep, s.model, tr, win)
	if err != nil {
		return nil, err
	}
	checkWindow(rep, w, win, layer, allocs)

	if opt.traced {
		ref := recorded[0]
		layer["trace.overhead_share"] = 1 - (float64(win.ok)/win.elapsed.Seconds())/(float64(ref.ok)/ref.elapsed.Seconds())
		logf("walking the ladder")
		rungs, err := ladder(ctx, s.model, modelDir, workerBin)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		// The ladder's fleet rung supplies the routing shares on workloads
		// that no fleet serves; on fleet-proc-replay the window's own win.
		for name, v := range rungs {
			if _, have := layer[name]; !have {
				layer[name] = v
			}
		}
		rep.Metrics = layer
		if opt.spansOut != "" {
			if err := os.MkdirAll(filepath.Dir(opt.spansOut), 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(opt.spansOut, win.spans); err != nil {
				return nil, err
			}
			logf("wrote %d requests' spans to %s", len(win.spans), opt.spansOut)
		}
	}
	checkHygiene(rep, workerBin, goroutines)
	return rep, nil
}

// delta is b−a of two counters.
func delta(a, b int64) float64 { return float64(b - a) }

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stageWindow differences one stage histogram's lifetime count and mean
// into the window's count and mean (ms).
func stageWindow(a, b view, stage string) (count, meanMs float64) {
	sa, sb := a.stages[stage], b.stages[stage]
	count = float64(sb.Count) - float64(sa.Count)
	return count, ratio(float64(sb.Count)*sb.Mean-float64(sa.Count)*sa.Mean, count)
}

// windowMetrics derives the per-workload per-layer metrics of a window:
// the program's own counters and stage histograms differenced across it,
// and the benchmark's spans.
func windowMetrics(win *windowResult, w workload) map[string]float64 {
	a, b := win.before, win.next
	ca, cb := a.counters, b.counters
	out := map[string]float64{}

	hits := delta(ca.EncoderCacheHits, cb.EncoderCacheHits)
	out["coding.quantcache.hit_share"] = ratio(hits, hits+delta(ca.EncoderCacheMisses, cb.EncoderCacheMisses))

	_, out["serve.batcher.queue_ms_mean"] = stageWindow(a, b, "queue")
	_, out["serve.batcher.form_ms_mean"] = stageWindow(a, b, "form")
	batches := delta(ca.Batches, cb.Batches)
	lanes := float64(cb.Batches)*cb.MeanBatchOccupancy - float64(ca.Batches)*ca.MeanBatchOccupancy
	out["serve.batcher.batch_occupancy_mean"] = ratio(lanes, batches)
	simulated, simulateMs := stageWindow(a, b, "simulate")
	// Share of simulated requests that rode a lockstep batch.
	out["serve.batcher.lockstep_share"] = ratio(lanes, simulated)
	out["serve.batcher.deduped_count"] = delta(ca.DedupedRequests, cb.DedupedRequests)
	out["serve.batcher.shed_count"] = delta(ca.SheddedRequests, cb.SheddedRequests)

	hits = delta(ca.ResponseCacheHits, cb.ResponseCacheHits)
	out["serve.respcache.hit_share"] = ratio(hits, hits+delta(ca.ResponseCacheMisses, cb.ResponseCacheMisses))
	hits = delta(ca.ExitHistoryHits, cb.ExitHistoryHits)
	out["serve.exithistory.hit_share"] = ratio(hits, hits+delta(ca.ExitHistoryMisses, cb.ExitHistoryMisses))
	_, encodeMs := stageWindow(a, b, "encode")
	_, readoutMs := stageWindow(a, b, "readout")
	_, totalMs := stageWindow(a, b, "total")
	out["serve.server.encode_ms_mean"] = encodeMs
	out["serve.server.simulate_ms_mean"] = simulateMs
	out["serve.server.readout_ms_mean"] = readoutMs
	out["serve.server.total_ms_mean"] = totalMs

	// What the program's own stages do not account for: client-observed
	// mean latency minus the server's end-to-end span. Codec, handler,
	// socket and (for the fleet) the front and its hop all hide here.
	out["obs.unattributed_ms_mean"] = mean(win.allMs) - totalMs
	// queue already contains form (see internal/obs).
	out["obs.stage_sum_ms_mean"] = out["serve.batcher.queue_ms_mean"] + encodeMs + simulateMs + readoutMs

	if w.transport == httpFleet {
		fleetWindowMetrics(out, a, b)
	}

	spans := spanMeans(win.spans)
	out["client.gen_ns_per_req"] = spans[spanGen]
	out["client.marshal_ns_per_req"] = spans[spanMarshal]
	out["client.roundtrip_ns_per_req"] = spans[spanRoundtrip]
	out["client.unmarshal_ns_per_req"] = spans[spanUnmarshal]
	out["client.latency_p95_ms"] = percentile(win.allMs, 95)
	out["client.latency_p99_ms"] = percentile(win.allMs, 99)
	return out
}

// fleetWindowMetrics derives the routing shares of a window served by a
// fleet: how many lookups the shards answered from their caches, how
// many requests were offered to a second shard, and how evenly the ring
// spread them (least-loaded shard over most-loaded).
func fleetWindowMetrics(out map[string]float64, a, b view) {
	ca, cb := a.counters, b.counters
	// Every shard a request is offered to looks it up once, so a request
	// that leaves its owner adds a miss: hits over lookups across the
	// shards is the share answered from the owner's cache.
	hits := delta(ca.ResponseCacheHits, cb.ResponseCacheHits)
	out["fleet.owner_hit_share"] = ratio(hits, hits+delta(ca.ResponseCacheMisses, cb.ResponseCacheMisses))
	fallbacks, least, most := 0.0, math.Inf(1), 0.0
	for i := range b.shards {
		fallbacks += delta(a.shards[i].Fallbacks, b.shards[i].Fallbacks)
		d := delta(a.shards[i].Dispatched, b.shards[i].Dispatched)
		least, most = math.Min(least, d), math.Max(most, d)
	}
	out["fleet.fallback_count"] = fallbacks
	out["fleet.dispatch_balance"] = ratio(least, most)
}

// checkOutputs re-derives a spread of the window's replies on a private
// replica built from the same conversion and compares predictions. It
// returns the heap allocations per steady-state serve.Classify call.
func checkOutputs(rep *report, m *experiments.Model, tr *traffic, win *windowResult) (allocs float64, err error) {
	oracle, policy, err := newOracle(m)
	if err != nil {
		return 0, err
	}
	scratch := make([]float64, tr.inputSize())
	n := min(checkSamples, len(win.samples))
	mismatches, first := 0, ""
	for k := 0; k < n; k++ {
		sm := win.samples[k*len(win.samples)/n]
		img, _ := tr.request(sm.index, scratch)
		want := serve.Classify(oracle.Net, img, policy).Prediction
		if want != sm.prediction {
			mismatches++
			if first == "" {
				first = fmt.Sprintf("; request %d: served %d, replica %d", sm.index, sm.prediction, want)
			}
		}
	}
	rep.check("sample predictions equal the private replica", mismatches == 0,
		"%d of %d differ%s", mismatches, n, first)

	// Steady state is one image seen often enough that the encoder's
	// quantization cache has promoted it (its two-sighting promotion is
	// the engine's only allocation).
	img, _ := tr.request(0, scratch)
	_, allocs = timeOp(50*time.Millisecond, func() { serve.Classify(oracle.Net, img, policy) })
	return allocs, nil
}

// checkWindow asserts that the recorded window measured what the
// workload says it measures.
func checkWindow(rep *report, w workload, win *windowResult, layer map[string]float64, classifyAllocs float64) {
	acc := float64(win.labelHits) / float64(win.ok)
	rep.check("accuracy at or above the floor", acc >= accuracyFloor, "%.4f (floor %.2f)", acc, accuracyFloor)

	// An invalid run, not a fast or slow one: unique traffic that hits the
	// response cache, or replay traffic that misses it.
	share := layer["serve.respcache.hit_share"]
	if w.unique {
		rep.check("unique traffic misses the response cache", share <= 0.001, "hit share %.4f", share)
	} else {
		rep.check("replay traffic hits the response cache", share >= 0.99, "hit share %.4f", share)
	}
	// A stray runtime allocation is a small fraction of a call; a
	// per-call allocation shows as ≥ 1.
	rep.check("serve.Classify allocates nothing per request", classifyAllocs < 0.5, "%.3f allocs/req", classifyAllocs)
	// The highest percentile reported (client.latency_p99_ms, traced run)
	// must be a rank inside the window's samples, not their maximum.
	rep.check("p99 has ten samples beyond it", supported(len(win.allMs), 99), "%d samples in the window", len(win.allMs))

	// The window's server-side count must be the client's, or the stage
	// means above were differenced over different requests.
	served, _ := stageWindow(win.before, win.next, "total")
	rep.check("server and client count the same window", math.Abs(served-float64(win.ok)) <= 0.05*float64(win.ok),
		"server observed %.0f, client %d", served, win.ok)

	if w.transport == httpFleet {
		respawns := 0.0
		for i := range win.next.shards {
			respawns += delta(win.before.shards[i].Respawns, win.next.shards[i].Respawns)
		}
		rep.check("no shard respawned in the window", respawns == 0, "%.0f respawns", respawns)
	}
}

// checkHygiene asserts that the run left nothing behind: no worker
// process, no goroutine above the baseline taken before set-up.
func checkHygiene(rep *report, workerBin string, baseline int) {
	if workerBin != "" {
		left := 0
		deadline := time.Now().Add(3 * time.Second)
		for {
			left = workersRunning(workerBin)
			if left == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		rep.check("no snnserve worker process left", left == 0, "%d running", left)
	}
	now := 0
	deadline := time.Now().Add(3 * time.Second)
	for {
		now = runtime.NumGoroutine()
		if now <= baseline || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.check("goroutines back to baseline", now <= baseline, "%d now, %d before set-up", now, baseline)
}

// workersRunning counts live processes whose command line names this
// run's snnserve binary (its path is unique to the run's temp dir).
func workersRunning(workerBin string) int {
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		return 0
	}
	n := 0
	for _, p := range procs {
		cmdline, err := os.ReadFile(p)
		if err == nil && bytes.HasPrefix(cmdline, []byte(workerBin+"\x00")) {
			n++
		}
	}
	return n
}
