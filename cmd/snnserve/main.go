// Command snnserve serves single-image SNN classification over HTTP.
//
// It trains (or loads from the model cache) the named baseline models,
// converts each under the requested input-hidden coding, and exposes the
// serving API:
//
//	POST /v1/classify   {"model":"digits","image":[...784 floats]}
//	GET  /v1/models     registered models and their configurations
//	GET  /v1/trace      recent per-request stage traces + pinned slowest
//	GET  /healthz       liveness, build/runtime info, kernel dispatch tier
//	GET  /metrics       request counts, latency percentiles, per-stage
//	                    histograms, mean steps-to-exit, spikes/image
//	GET  /metrics/prom  the same telemetry in Prometheus text format
//	                    (also /metrics?format=prom)
//
// Usage:
//
//	snnserve -addr :8344 -models digits -input phase -hidden burst -steps 192
//
// Observability flags: -log emits one structured (slog) line per request,
// -pprof mounts net/http/pprof under /debug/pprof/, and -slow-trace sets
// the latency at which a request's trace is pinned past ring turnover.
//
// The early-exit engine stops each request's simulation as soon as the
// readout prediction has been stable for -window steps, so typical
// requests cost a fraction of the full -steps budget.
//
// Selftest mode (-selftest) builds a LeNetMini/phase-burst digits model,
// starts the server on an ephemeral port, drives concurrent synthetic
// traffic through the HTTP API, and reports throughput, latency
// percentiles, the per-stage time breakdown, and the early-exit step
// savings against the full-budget baseline, exiting non-zero if accuracy
// degrades or early exit fails to beat the budget. After the load run it
// scrapes /metrics, /metrics/prom (strictly validated), and /v1/trace,
// failing on empty stage histograms or unparseable exposition;
// -trace-out writes the scraped trace page to a file (a CI artifact).
//
// Overload selftest mode (-selftest-overload) squeezes capacity to one
// replica with a short queue and injected batch latency, then proves the
// overload plane: response-cache hits for replayed images, 429 +
// Retry-After shedding for a past-capacity burst, degraded mode
// engaging and lifting, and a leak-free shutdown. Serving flags:
// -request-timeout, -response-cache / -response-cache-ttl, and -degrade
// control the same mechanisms on a real server.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"burstsnn"
	"burstsnn/internal/experiments"
	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "HTTP listen address")
		models   = flag.String("models", "digits", "comma-separated baseline models to serve: digits, textures10, textures100")
		input    = flag.String("input", "phase", "input coding: real, rate, phase, ttfs")
		hidden   = flag.String("hidden", "burst", "hidden coding: rate, phase, burst")
		vth      = flag.Float64("vth", 0, "hidden threshold constant v_th (0 = scheme default)")
		beta     = flag.Float64("beta", 0, "burst constant β (0 = default 2)")
		steps    = flag.Int("steps", 192, "per-request simulation budget")
		replicas = flag.Int("replicas", 0, "simulator replicas per model (0 = GOMAXPROCS)")
		window   = flag.Int("window", 12, "early-exit stability window in steps (0 disables early exit)")
		minSteps = flag.Int("minsteps", 16, "earliest step at which early exit is allowed")
		margin   = flag.Float64("margin", 0, "required per-step top1-top2 readout margin for early exit (0 = none)")
		maxBatch = flag.Int("maxbatch", 8, "microbatch size limit")
		maxDelay = flag.Duration("maxdelay", 2*time.Millisecond, "upper bound of the adaptive batch-forming window, which decays to zero for traffic that waiting does not gather; negative dispatches on queue drain")
		lockstep = lockstepFlagVar("lockstep", serve.LockstepAuto, "how multi-request microbatches execute: auto = sequential (back to back on the faster event-driven engine); on = force the f32 lockstep plane, for near-duplicate batches and conformance; off = sequential")
		exitHist = flag.Int("exit-history", 0, "exit-aware batch forming: per-model (image-hash → exit-step) history entries (0 = default, negative disables)")
		dir      = flag.String("dir", "", "model cache directory (default: system temp)")
		tiny     = flag.Bool("tiny", false, "use the reduced test-scale model recipes")

		queueDepth   = flag.Int("queue-depth", 0, "admission queue bound per model; requests beyond it shed with 429 (0 = default 4×maxbatch×GOMAXPROCS)")
		maxReplicas  = flag.Int("max-replicas", 0, "replica pool growth ceiling per model for the fleet autoscaler (0 = fixed pool at -replicas)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request end-to-end deadline; a request whose remaining deadline is below the projected queue wait is shed with 429 + Retry-After (0 = default 30s)")
		respCache    = flag.Int("response-cache", 0, "cross-batch response cache entries per model — replayed images are answered without a replica (0 = default 4096, negative disables)")
		respCacheTTL = flag.Duration("response-cache-ttl", 0, "response cache entry lifetime (0 = default 1m)")
		degrade      = flag.Bool("degrade", false, "graceful degradation: while admission-queue pressure is high, serve under a tightened (halved-budget) early-exit policy instead of queueing toward timeout")

		maxResident = flag.Int("max-resident-models", 0, "resident-model bound: keep at most this many models' replica pools live, LRU-evicting the rest to the conversion archive; evicted models warm back in transparently on the next request (0 = unbounded)")
		evictIdle   = flag.Duration("evict-idle", 0, "evict any model idle for this long to the conversion archive (0 disables)")
		fairSlots   = flag.Int("fair-slots", 0, "cross-model weighted-fair batch scheduling with this many concurrent execution slots (0 = auto: GOMAXPROCS slots when any -model-weight is set, off otherwise; negative forces off)")
		weights     = modelWeightsFlagVar("model-weight", "fair-share weight as name=w (repeatable; unlisted models weigh 1); a model's long-run share of the execution slots is w over the sum of contending weights")

		logReqs   = flag.Bool("log", false, "emit one structured log line per classification (slog, stderr)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving port")
		slowTrace = flag.Duration("slow-trace", 0, "pin traces at or over this end-to-end latency past ring turnover (0 = default 250ms, negative disables)")

		fleetN       = flag.Int("fleet", 0, "serve through the sharded fleet tier with this many shard workers (0 = single server)")
		fleetBackend = flag.String("fleet-workers", "inproc", "fleet shard backend: inproc (goroutine pools in this process) or proc (one snnserve -worker child process per shard)")
		fleetHops    = flag.Int("fleet-fallback-hops", 1, "fleet: additional shards a request may be offered after its owner sheds it (0 pins requests to their owner)")
		fleetScale   = flag.Bool("fleet-autoscale", false, "fleet: widen/narrow each shard's replica pools (up to -max-replicas) from its queue-pressure EWMA")
		workerMode   = flag.Bool("worker", false, "run as a fleet shard worker: serve on an ephemeral port (unless -addr is explicit) and announce FLEET_WORKER_ADDR=<addr> on stdout")

		selftest         = flag.Bool("selftest", false, "run the deterministic load-generator selftest and exit")
		selftestOverload = flag.Bool("selftest-overload", false, "run the overload-resilience selftest (replay-heavy phase, then a past-capacity burst) and exit")
		selftestFleet    = flag.Bool("selftest-fleet", false, "run the sharded fleet selftest (routing affinity, per-shard caches, merged telemetry, respawn) and exit")
		selftestLife     = flag.Bool("selftest-lifecycle", false, "run the model-lifecycle selftest (hot re-register under load, resident-bound eviction/warm, weighted-fair isolation) and exit")
		requests         = flag.Int("requests", 200, "selftest: total classification requests")
		workers          = flag.Int("workers", 32, "selftest: concurrent load-generator workers")
		traceOut         = flag.String("trace-out", "", "selftest: write the scraped /v1/trace page to this file")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "snnserve: %v\n", err)
		os.Exit(1)
	}
	// snnserve takes no positional arguments, and -lockstep is
	// boolean-style: `-lockstep off` would parse as -lockstep (= on) plus
	// a stray "off" that ends flag parsing. Reject it instead.
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q (-lockstep takes its mode as -lockstep=auto|on|off)", flag.Arg(0)))
	}

	inScheme, err := burstsnn.ParseScheme(*input)
	if err != nil {
		fail(err)
	}
	hidScheme, err := burstsnn.ParseScheme(*hidden)
	if err != nil {
		fail(err)
	}
	hybrid := burstsnn.NewHybrid(inScheme, hidScheme)
	if *vth > 0 {
		hybrid = hybrid.WithVTh(*vth)
	}
	if *beta > 0 {
		hybrid = hybrid.WithBeta(*beta)
	}
	exit := serve.ExitPolicy{
		MaxSteps:     *steps,
		MinSteps:     *minSteps,
		StableWindow: *window,
		Margin:       *margin,
	}
	if *window == 0 {
		exit.MinSteps, exit.Margin = 0, 0
	}

	var logger *slog.Logger
	if *logReqs {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	if *selftestLife {
		if err := runLifecycleSelftest(hybrid, exit, string(*lockstep), logger); err != nil {
			fail(err)
		}
		return
	}

	if *selftestOverload {
		if err := runOverloadSelftest(hybrid, exit, string(*lockstep), logger); err != nil {
			fail(err)
		}
		return
	}

	if *selftestFleet {
		shards := *fleetN
		if shards < 2 {
			shards = 2
		}
		if err := runFleetSelftest(hybrid, exit, string(*lockstep), shards, logger); err != nil {
			fail(err)
		}
		return
	}

	if *selftest {
		// The selftest asserts exact accuracy parity with full-budget
		// inference, so it defaults to a more conservative stability
		// window than interactive serving; explicit flags still win.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["window"] {
			exit.StableWindow = 32
		}
		if !explicit["minsteps"] {
			exit.MinSteps = 32
		}
		cfg := burstsnn.ServeConfig{
			MaxBatch:          *maxBatch,
			MaxDelay:          *maxDelay,
			LockstepBatch:     string(*lockstep),
			ExitHistorySize:   *exitHist,
			RequestTimeout:    *reqTimeout,
			ResponseCacheSize: *respCache,
			ResponseCacheTTL:  *respCacheTTL,
			Degrade:           *degrade,
			Logger:            logger,
		}
		if err := runSelftest(hybrid, exit, cfg, *steps, *replicas, *requests, *workers, *traceOut); err != nil {
			fail(err)
		}
		return
	}

	settings := experiments.DefaultSettings()
	settings.Log = os.Stderr
	settings.Tiny = *tiny
	if *dir != "" {
		settings.ModelDir = *dir
	}
	lab := experiments.NewLab(settings)

	fmt.Fprintf(os.Stderr, "float32 kernels: %s (dispatch tier %s, detected %s)\n",
		kernels.Kind(), kernels.ActiveLevel(), kernels.DetectedLevel())

	// buildServer constructs one fully-registered server — the single
	// server below, a fleet shard's in-process worker, or the -worker
	// child's backend all use the same recipe.
	buildServer := func(quiet bool) (*burstsnn.Server, error) {
		srv := burstsnn.NewServer(burstsnn.ServeConfig{
			Addr:               *addr,
			MaxBatch:           *maxBatch,
			MaxDelay:           *maxDelay,
			QueueDepth:         *queueDepth,
			LockstepBatch:      string(*lockstep),
			ExitHistorySize:    *exitHist,
			RequestTimeout:     *reqTimeout,
			ResponseCacheSize:  *respCache,
			ResponseCacheTTL:   *respCacheTTL,
			Degrade:            *degrade,
			SlowTraceThreshold: *slowTrace,
			MaxResidentModels:  *maxResident,
			EvictIdle:          *evictIdle,
			FairSlots:          *fairSlots,
			ModelWeights:       map[string]float64(*weights),
			Logger:             logger,
			EnablePprof:        *pprofOn,
		})
		for _, name := range strings.Split(*models, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			m, err := lab.Model(name)
			if err != nil {
				return nil, err
			}
			info, err := srv.Register(serve.ModelConfig{
				Name:        name,
				Hybrid:      hybrid,
				Steps:       *steps,
				Exit:        exit,
				Replicas:    *replicas,
				MaxReplicas: *maxReplicas,
			}, m.Net, m.Set.Train)
			if err != nil {
				return nil, err
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "serving %s as %s: %d neurons, %d replicas, budget %d steps (DNN acc %.4f)\n",
					name, hybrid.Notation(), info.Info().Neurons, info.Pool().Size(), *steps, m.DNNAcc)
			}
		}
		return srv, nil
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *workerMode {
		workerAddr := *addr
		if !explicit["addr"] {
			workerAddr = "127.0.0.1:0"
		}
		if err := runFleetWorker(buildServer, workerAddr); err != nil {
			fail(err)
		}
		return
	}

	if *fleetN > 0 {
		if err := runFleetFront(fleetOptions{
			shards:    *fleetN,
			backend:   *fleetBackend,
			hops:      *fleetHops,
			autoscale: *fleetScale,
			addr:      *addr,
		}, buildServer); err != nil {
			fail(err)
		}
		return
	}

	srv, err := buildServer(false)
	if err != nil {
		fail(err)
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	done := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "listening on %s\n", *addr)
		done <- srv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fail(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %v, draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail(err)
		}
		<-done
	}
}

// runSelftest is the deterministic load generator: it proves the serving
// path end to end (HTTP, batching, pooling, early exit) on a freshly
// trained LeNetMini digits model and checks the paper's latency win
// survives serving: mean steps-to-exit strictly below the budget at no
// loss of accuracy versus full-budget inference.
func runSelftest(hybrid burstsnn.Hybrid, exit serve.ExitPolicy, cfg burstsnn.ServeConfig, steps, replicas, requests, workers int, traceOut string) error {
	if requests < 100 {
		requests = 100
	}
	if workers < 1 {
		workers = 16
	}
	if exit.StableWindow == 0 {
		return fmt.Errorf("selftest requires early exit (set -window > 0)")
	}

	fmt.Println("== snnserve selftest ==")
	fmt.Printf("training LeNetMini on synthetic digits...\n")
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 80, TestPerClass: 20, Noise: 0.04, Seed: 1009,
	})
	net, err := burstsnn.BuildDNN(burstsnn.LeNetMini(1, 28, 28, 10), burstsnn.NewRNG(4242))
	if err != nil {
		return err
	}
	burstsnn.Train(net, set, burstsnn.NewAdam(0.002), burstsnn.TrainConfig{
		Epochs: 4, BatchSize: 32, Seed: 99,
	})
	dnnAcc := burstsnn.EvaluateDNN(net, set.Test)
	fmt.Printf("DNN accuracy %.4f on %d test images\n", dnnAcc, len(set.Test))

	srv := burstsnn.NewServer(cfg)
	model, err := srv.Register(serve.ModelConfig{
		Name:     "digits",
		Hybrid:   hybrid,
		Steps:    steps,
		Exit:     exit,
		Replicas: replicas,
	}, net, set.Train)
	if err != nil {
		return err
	}
	fmt.Printf("registered %s (%d neurons, %d replicas, budget %d steps)\n",
		hybrid.Notation(), model.Info().Neurons, model.Pool().Size(), steps)

	ln, err := net0()
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}()

	// Full-budget baseline over the distinct test images (in-process: the
	// HTTP layer adds nothing to simulated accuracy).
	fullCorrect := 0
	ctx := context.Background()
	for _, s := range set.Test {
		res, err := srv.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: s.Image, NoEarlyExit: true})
		if err != nil {
			return fmt.Errorf("full-budget baseline: %w", err)
		}
		if res.Prediction == s.Label {
			fullCorrect++
		}
	}
	fullAcc := float64(fullCorrect) / float64(len(set.Test))
	fmt.Printf("full-budget SNN accuracy %.4f at %d steps/request\n", fullAcc, steps)

	// Concurrent load through the real HTTP API, cycling the test set.
	fmt.Printf("driving %d requests over %d workers at %s ...\n", requests, workers, base)
	type shot struct {
		res serve.ClassifyResult
		err error
	}
	shots := make([]shot, requests)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	client := &http.Client{Timeout: 60 * time.Second}
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := set.Test[i%len(set.Test)]
				res, err := classifyHTTP(client, base, serve.ClassifyRequest{Model: "digits", Image: s.Image})
				shots[i] = shot{res: res, err: err}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(began)

	earlyCorrect, totalSteps, totalSpikes, exits := 0, 0, 0, 0
	latencies := make([]float64, 0, requests)
	for i, sh := range shots {
		if sh.err != nil {
			return fmt.Errorf("request %d: %w", i, sh.err)
		}
		if sh.res.Prediction == set.Test[i%len(set.Test)].Label {
			earlyCorrect++
		}
		totalSteps += sh.res.Steps
		totalSpikes += sh.res.Spikes
		if sh.res.EarlyExit {
			exits++
		}
		latencies = append(latencies, sh.res.LatencyMs)
	}
	sort.Float64s(latencies)
	earlyAcc := float64(earlyCorrect) / float64(requests)
	meanSteps := float64(totalSteps) / float64(requests)
	throughput := float64(requests) / wall.Seconds()

	fmt.Println("-- results --")
	fmt.Printf("requests      : %d over %d workers in %v\n", requests, workers, wall.Round(time.Millisecond))
	fmt.Printf("throughput    : %.1f req/s\n", throughput)
	fmt.Printf("latency       : p50 %.2fms  p99 %.2fms\n",
		serve.Percentile(latencies, 50), serve.Percentile(latencies, 99))
	fmt.Printf("accuracy      : %.4f early-exit vs %.4f full-budget\n", earlyAcc, fullAcc)
	fmt.Printf("steps/request : %.1f mean (budget %d, %.0f%% early exits)\n",
		meanSteps, steps, 100*float64(exits)/float64(requests))
	fmt.Printf("spikes/request: %.0f\n", float64(totalSpikes)/float64(requests))

	if earlyAcc < fullAcc {
		return fmt.Errorf("early-exit accuracy %.4f fell below full-budget accuracy %.4f", earlyAcc, fullAcc)
	}
	if meanSteps >= float64(steps) {
		return fmt.Errorf("mean steps %.1f did not beat the %d-step budget", meanSteps, steps)
	}
	if err := scrapeTelemetry(client, base, traceOut, cfg.LockstepBatch == serve.LockstepOn); err != nil {
		return fmt.Errorf("telemetry scrape: %w", err)
	}
	fmt.Println("selftest PASS")
	return nil
}

// scrapeTelemetry hits the three telemetry surfaces after the load run
// and asserts each one reflects the traffic that just went through:
// /metrics must carry non-empty per-stage histograms (printed as the
// stage breakdown), /metrics/prom must pass the strict exposition
// validator, and /v1/trace must hold at least one trace with a measured
// simulate span. traceOut, when set, receives the raw trace page (CI
// uploads it as an artifact). lockstepOn says whether the server was
// started with -lockstep=on, the only mode that may reach the plane.
func scrapeTelemetry(client *http.Client, base, traceOut string, lockstepOn bool) error {
	// JSON metrics: the per-stage histograms must have observed the load.
	var metrics struct {
		Models map[string]serve.Snapshot `json:"models"`
	}
	if err := getJSON(client, base+"/metrics", &metrics); err != nil {
		return err
	}
	snap, ok := metrics.Models["digits"]
	if !ok {
		return fmt.Errorf("/metrics has no digits model")
	}
	fmt.Println("-- stage breakdown (/metrics) --")
	for _, stage := range []string{"queue", "form", "encode", "simulate", "readout", "total"} {
		st, ok := snap.Stages[stage]
		if !ok {
			return fmt.Errorf("/metrics stage %q missing", stage)
		}
		if st.Count == 0 {
			return fmt.Errorf("/metrics stage %q histogram is empty after load", stage)
		}
		fmt.Printf("%-9s: mean %8.3fms  p50 %8.3fms  p99 %8.3fms  (n=%d)\n",
			stage, st.Mean, st.P50, st.P99, st.Count)
	}

	// What waiting for company earned: a lone closed-loop client should
	// read as a few fruitless waits, then skipped ones and a zero window.
	fw := snap.FormWaits
	fmt.Printf("forming  : window %.3fms now; partial batches: %d joined, %d fruitless, %d skipped\n",
		snap.FormWindowMs, fw.Joined, fw.Fruitless, fw.Skipped)

	// Steering decision trace: how the scheduling plane routed the load's
	// multi-request batches and why, so a steering regression (a plane
	// stuck sequential, a silent lockstep fallback) is diagnosable from
	// the CI log alone.
	fmt.Println("-- steering decisions --")
	fmt.Printf("scheduler     : %s\n", snap.Scheduler)
	fmt.Printf("dispatches    : %d lockstep, %d sequential (multi-request batches)\n",
		snap.SchedLockstepBatches, snap.SchedSequentialBatches)
	reasons := make([]string, 0, len(snap.SchedReasons))
	for reason := range snap.SchedReasons {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Printf("  %-15s: %d\n", reason, snap.SchedReasons[reason])
	}
	if snap.LockstepFallbacks > 0 {
		fmt.Printf("lockstep fallbacks: %d (replica could not batch)\n", snap.LockstepFallbacks)
	}
	// The route is the flag's, on every dispatch tier: only -lockstep=on
	// reaches the plane, and under it concurrent load must reach it.
	if lockstepOn != (snap.SchedLockstepBatches > 0) {
		return fmt.Errorf("scheduler %q dispatched %d lockstep batches (%d sequential)",
			snap.Scheduler, snap.SchedLockstepBatches, snap.SchedSequentialBatches)
	}
	if hits, misses := snap.ExitHistoryHits, snap.ExitHistoryMisses; hits+misses > 0 {
		fmt.Printf("exit history  : %d predicted, %d unpredicted", hits, misses)
		if pe := snap.ExitPredictionError; pe.Count > 0 {
			fmt.Printf("; |pred−actual| mean %.1f steps (p99 %.0f, n=%d)", pe.Mean, pe.P99, pe.Count)
		}
		fmt.Println()
	}

	// Prometheus exposition: both routes must parse under the strict
	// validator (an exposition bug fails here rather than in a scraper).
	for _, path := range []string{"/metrics/prom", "/metrics?format=prom"} {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		samples, err := obs.ValidatePromText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if samples == 0 {
			return fmt.Errorf("%s: no samples", path)
		}
		if path == "/metrics/prom" {
			fmt.Printf("prom exposition: %d samples, validated\n", samples)
		}
	}

	// Trace ring: the load must have left recent traces with stage spans.
	resp, err := client.Get(base + "/v1/trace")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var page struct {
		Recent []obs.Trace `json:"recent"`
		Slow   []obs.Trace `json:"slow"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return fmt.Errorf("/v1/trace: %w", err)
	}
	if len(page.Recent) == 0 {
		return fmt.Errorf("/v1/trace is empty after load")
	}
	simulated := false
	for _, t := range page.Recent {
		if t.SimulateMs > 0 && t.ID != "" {
			simulated = true
			break
		}
	}
	if !simulated {
		return fmt.Errorf("/v1/trace: no recent trace carries a simulate span")
	}
	fmt.Printf("trace ring: %d recent, %d pinned slow\n", len(page.Recent), len(page.Slow))
	if traceOut != "" {
		if err := os.WriteFile(traceOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote trace sample to %s\n", traceOut)
	}
	return nil
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// lockstepMode is the -lockstep flag value: auto/on/off, with
// the boolean spellings of the flag's PR-4 ancestry still accepted —
// IsBoolFlag makes a bare `-lockstep` parse as "true" (= on), exactly
// like the flag.Bool it used to be.
type lockstepMode string

func lockstepFlagVar(name, def, usage string) *lockstepMode {
	m := lockstepMode(def)
	flag.Var(&m, name, usage)
	return &m
}

func (m *lockstepMode) String() string { return string(*m) }

func (m *lockstepMode) IsBoolFlag() bool { return true }

func (m *lockstepMode) Set(s string) error {
	switch s {
	case serve.LockstepAuto, serve.LockstepOn, serve.LockstepOff:
		*m = lockstepMode(s)
	case "true":
		*m = serve.LockstepOn
	case "false":
		*m = serve.LockstepOff
	default:
		return fmt.Errorf("want auto, on, or off, got %q", s)
	}
	return nil
}

// modelWeights is the repeatable -model-weight flag: "name=w" pairs
// collected into the serve.Config.ModelWeights map.
type modelWeights map[string]float64

func modelWeightsFlagVar(name, usage string) *modelWeights {
	m := modelWeights{}
	flag.Var(&m, name, usage)
	return &m
}

func (m *modelWeights) String() string {
	if m == nil || len(*m) == 0 {
		return ""
	}
	parts := make([]string, 0, len(*m))
	for name, w := range *m {
		parts = append(parts, fmt.Sprintf("%s=%g", name, w))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (m *modelWeights) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight, got %q", s)
	}
	w, err := strconv.ParseFloat(val, 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("weight for %q must be a positive number, got %q", name, val)
	}
	(*m)[name] = w
	return nil
}

func net0() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func classifyHTTP(client *http.Client, base string, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	var res serve.ClassifyResult
	body, err := json.Marshal(req)
	if err != nil {
		return res, err
	}
	resp, err := client.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return res, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return res, json.NewDecoder(resp.Body).Decode(&res)
}
