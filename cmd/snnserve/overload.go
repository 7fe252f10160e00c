package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"burstsnn"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// runOverloadSelftest proves the overload-resilience plane end to end
// on a deliberately tiny serving capacity (one replica, short queue,
// injected per-batch latency):
//
//   - Phase A (replay-heavy): a hot set of images is replayed until the
//     response cache promotes and serves them — cache hits must show up
//     in /metrics and in /v1/trace as requests with no simulate span.
//   - Phase B (past-capacity burst): concurrent unique-image traffic at
//     well over 2× capacity. Every request must either complete (200)
//     or shed (429 + Retry-After) — never hang or 5xx — and the burst
//     must drive the degrade controller into degraded mode.
//   - Drain: trickled requests bring queue pressure back down; the
//     model must report mode "normal" again, and once the server shuts
//     down the goroutine count must return to its pre-server baseline.
func runOverloadSelftest(hybrid burstsnn.Hybrid, exit serve.ExitPolicy, lockstep string, logger *slog.Logger) error {
	fmt.Println("== snnserve overload selftest ==")
	baseline := runtime.NumGoroutine()

	fmt.Println("training MLP on synthetic digits...")
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
	})
	net, err := burstsnn.BuildDNN(burstsnn.MLP(1, 28, 28, []int{32}, 10), burstsnn.NewRNG(7))
	if err != nil {
		return err
	}
	burstsnn.Train(net, set, burstsnn.NewAdam(0.01), burstsnn.TrainConfig{
		Epochs: 6, BatchSize: 32, Seed: 5,
	})

	// Tiny capacity, so the burst below provably exceeds it: one replica,
	// four-lane batches, an eight-slot queue, and 25ms of injected latency
	// per batch. Degrade on; response cache on (the default).
	srv := burstsnn.NewServer(burstsnn.ServeConfig{
		MaxBatch:       4,
		MaxDelay:       2 * time.Millisecond,
		QueueDepth:     8,
		LockstepBatch:  lockstep,
		RequestTimeout: 20 * time.Second,
		Degrade:        true,
		InjectLatency:  25 * time.Millisecond,
		Logger:         logger,
	})
	model, err := srv.Register(serve.ModelConfig{
		Name:     "digits",
		Hybrid:   hybrid,
		Steps:    exit.MaxSteps,
		Exit:     exit,
		Replicas: 1,
	}, net, set.Train)
	if err != nil {
		return err
	}
	fmt.Printf("registered %s: 1 replica, maxbatch 4, queue 8, +25ms/batch injected\n", hybrid.Notation())
	_ = model

	ln, err := net0()
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 60 * time.Second}

	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}
	failed := true
	defer func() {
		if failed {
			shutdown()
		}
	}()

	// --- Phase A: replay-heavy traffic warms the response cache ---
	hot := set.Test[:4]
	for round := 0; round < 4; round++ {
		for i, s := range hot {
			if _, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
				Model: "digits", Image: s.Image,
			}); err != nil || status != http.StatusOK {
				return fmt.Errorf("replay round %d image %d: status %d, err %v", round, i, status, err)
			}
		}
	}
	snap, err := overloadSnapshot(client, base)
	if err != nil {
		return err
	}
	if snap.ResponseCacheHits == 0 {
		return fmt.Errorf("phase A: responseCacheHits = 0 after 4 replay rounds (misses %d)", snap.ResponseCacheMisses)
	}
	cachedTraces, err := cachedTraceCount(client, base)
	if err != nil {
		return err
	}
	if cachedTraces == 0 {
		return fmt.Errorf("phase A: no trace shows a cached request without a simulate span")
	}
	fmt.Printf("phase A (replay) : %d cache hits / %d misses, %d cached traces with no simulate span\n",
		snap.ResponseCacheHits, snap.ResponseCacheMisses, cachedTraces)

	// --- Phase B: unique-image burst at well over capacity ---
	const (
		burstWorkers  = 64
		burstRequests = 160
	)
	fmt.Printf("phase B (burst)  : %d unique-image requests over %d workers...\n", burstRequests, burstWorkers)
	type shot struct {
		status     int
		retryAfter int
		err        error
	}
	shots := make([]shot, burstRequests)
	next := make(chan int)
	go func() {
		for i := 0; i < burstRequests; i++ {
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 0; w < burstWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Unique image per request: the cache and the batcher's
				// dedupe can't absorb any of the burst.
				img := append([]float64(nil), set.Test[i%len(set.Test)].Image...)
				img[0] = float64(i+1) / float64(2*burstRequests)
				_, status, retryAfter, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
					Model: "digits", Image: img,
				})
				shots[i] = shot{status: status, retryAfter: retryAfter, err: err}
			}
		}()
	}
	wg.Wait()

	completed, shed := 0, 0
	for i, sh := range shots {
		switch {
		case sh.err != nil:
			return fmt.Errorf("phase B request %d: %w", i, sh.err)
		case sh.status == http.StatusOK:
			completed++
		case sh.status == http.StatusTooManyRequests:
			shed++
			if sh.retryAfter < 1 {
				return fmt.Errorf("phase B request %d: 429 without a usable Retry-After (%d)", i, sh.retryAfter)
			}
		default:
			return fmt.Errorf("phase B request %d: status %d — every request must complete (200) or shed (429)", i, sh.status)
		}
	}
	if completed+shed != burstRequests {
		return fmt.Errorf("phase B: %d completed + %d shed != %d sent", completed, shed, burstRequests)
	}
	if completed == 0 || shed == 0 {
		return fmt.Errorf("phase B: %d completed, %d shed — the burst must produce both", completed, shed)
	}
	snap, err = overloadSnapshot(client, base)
	if err != nil {
		return err
	}
	if snap.SheddedRequests == 0 {
		return fmt.Errorf("phase B: sheddedRequests counter is 0 after %d observed 429s", shed)
	}
	if snap.DegradedRequests == 0 {
		return fmt.Errorf("phase B: degradedRequests = 0 — the burst never drove degraded mode (pressure %.2f)", snap.QueuePressure)
	}
	fmt.Printf("phase B result   : %d completed, %d shed (429), %d served degraded, peak mode %q\n",
		completed, shed, snap.DegradedRequests, snap.DegradeMode)

	// --- Drain: pressure decays, degraded mode must lift ---
	for i := 0; i < 30; i++ {
		s := set.Test[i%len(set.Test)]
		if _, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
			Model: "digits", Image: s.Image,
		}); err != nil || (status != http.StatusOK && status != http.StatusTooManyRequests) {
			return fmt.Errorf("drain request %d: status %d, err %v", i, status, err)
		}
	}
	snap, err = overloadSnapshot(client, base)
	if err != nil {
		return err
	}
	if snap.DegradeMode != "normal" {
		return fmt.Errorf("drain: mode %q (pressure %.2f) after trickle, want normal", snap.DegradeMode, snap.QueuePressure)
	}
	fmt.Printf("drain            : mode %q, queue pressure %.3f\n", snap.DegradeMode, snap.QueuePressure)

	// --- Shutdown: everything the server spawned must exit ---
	failed = false
	shutdown()
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			fmt.Printf("shutdown         : goroutines %d (baseline %d)\n", g, baseline)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shutdown leaked goroutines: %d now, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("overload selftest PASS")
	return nil
}

// overloadSnapshot scrapes /metrics and returns the digits snapshot.
func overloadSnapshot(client *http.Client, base string) (serve.Snapshot, error) {
	var metrics struct {
		Models map[string]serve.Snapshot `json:"models"`
	}
	if err := getJSON(client, base+"/metrics", &metrics); err != nil {
		return serve.Snapshot{}, err
	}
	snap, ok := metrics.Models["digits"]
	if !ok {
		return serve.Snapshot{}, fmt.Errorf("/metrics has no digits model")
	}
	return snap, nil
}

// cachedTraceCount counts /v1/trace entries served from the response
// cache; each must carry no simulate (or queue) span — a cached answer
// never checked out a replica.
func cachedTraceCount(client *http.Client, base string) (int, error) {
	var page struct {
		Recent []obs.Trace `json:"recent"`
	}
	if err := getJSON(client, base+"/v1/trace", &page); err != nil {
		return 0, err
	}
	n := 0
	for _, t := range page.Recent {
		if !t.Cached {
			continue
		}
		if t.SimulateMs != 0 || t.QueueMs != 0 {
			return 0, fmt.Errorf("cached trace %s carries pipeline spans (simulate %.3fms, queue %.3fms)",
				t.ID, t.SimulateMs, t.QueueMs)
		}
		n++
	}
	return n, nil
}

// classifyHTTPStatus posts one classification and reports the HTTP
// status instead of folding non-200s into an error: the overload
// selftest needs to tell a shed (429) from a transport failure. The
// Retry-After header is returned in whole seconds (0 when absent).
func classifyHTTPStatus(client *http.Client, base string, req serve.ClassifyRequest) (serve.ClassifyResult, int, int, error) {
	var res serve.ClassifyResult
	body, err := json.Marshal(req)
	if err != nil {
		return res, 0, 0, err
	}
	resp, err := client.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, 0, 0, err
	}
	defer resp.Body.Close()
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return res, resp.StatusCode, retryAfter, err
		}
		return res, resp.StatusCode, retryAfter, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return res, resp.StatusCode, retryAfter, nil
}
