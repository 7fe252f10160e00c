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
// -request-timeout, -response-cache, and -degrade control the same
// mechanisms on a real server.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
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

// cli is snnserve's command line: its flags, defined on their own
// FlagSet, and the values they parse into.
type cli struct {
	fs *flag.FlagSet

	addr, models, input, hidden, dir string
	steps, replicas, window          int
	maxDelay                         time.Duration
	tiny                             bool

	queueDepth, maxReplicas, respCache int
	reqTimeout                         time.Duration
	degrade                            bool

	maxResident int
	evictIdle   time.Duration
	weights     modelWeights

	logReqs, pprofOn bool
	slowTrace        time.Duration

	fleetN       int
	fleetBackend string
	fleetHops    int
	workerMode   bool

	selftest, selftestOverload, selftestFleet, selftestLife bool
	traceOut                                                string
}

// newCLI defines snnserve's flags on a fresh FlagSet.
func newCLI(onError flag.ErrorHandling) *cli {
	c := &cli{fs: flag.NewFlagSet("snnserve", onError), weights: modelWeights{}}
	fs := c.fs
	fs.StringVar(&c.addr, "addr", ":8344", "HTTP listen address")
	fs.StringVar(&c.models, "models", "digits", "comma-separated baseline models to serve: digits, textures10, textures100")
	fs.StringVar(&c.input, "input", "phase", "input coding: real, rate, phase, ttfs")
	fs.StringVar(&c.hidden, "hidden", "burst", "hidden coding: rate, phase, burst")
	fs.IntVar(&c.steps, "steps", 192, "per-request simulation budget")
	fs.IntVar(&c.replicas, "replicas", 0, "simulator replicas per model (0 = GOMAXPROCS)")
	fs.IntVar(&c.window, "window", serve.DefaultExitPolicy(math.MaxInt).StableWindow, "early-exit stability window in steps, clamped to -steps (0 disables early exit)")
	fs.DurationVar(&c.maxDelay, "maxdelay", 2*time.Millisecond, "upper bound of the adaptive batch-forming window, which decays to zero for traffic that waiting does not gather; negative dispatches on queue drain")
	fs.StringVar(&c.dir, "dir", "", "model cache directory (default: system temp)")
	fs.BoolVar(&c.tiny, "tiny", false, "use the reduced test-scale model recipes")

	fs.IntVar(&c.queueDepth, "queue-depth", 0, "admission queue bound per model; requests beyond it shed with 429 (0 = default: four full batches per GOMAXPROCS)")
	fs.IntVar(&c.maxReplicas, "max-replicas", 0, "autoscale ceiling per model for any server, single or fleet shard: above -replicas, the server widens and narrows the pool within [1, ceiling] from its queue pressure (0 = fixed pool at -replicas)")
	fs.DurationVar(&c.reqTimeout, "request-timeout", 0, "per-request end-to-end deadline; a request whose remaining deadline is below the projected queue wait is shed with 429 + Retry-After (0 = default 30s)")
	fs.IntVar(&c.respCache, "response-cache", 0, "cross-batch response cache entries per model — replayed images are answered without a replica (0 = default 4096, negative disables)")
	fs.BoolVar(&c.degrade, "degrade", false, "graceful degradation: while admission-queue pressure is high, serve under a tightened (halved-budget) early-exit policy instead of queueing toward timeout")

	fs.IntVar(&c.maxResident, "max-resident-models", 0, "resident-model bound: keep at most this many models' replica pools live, LRU-evicting the rest to the conversion archive; evicted models warm back in transparently on the next request (0 = unbounded)")
	fs.DurationVar(&c.evictIdle, "evict-idle", 0, "evict any model idle for this long to the conversion archive (0 disables)")
	fs.Var(&c.weights, "model-weight", "fair-share weight as name=w (repeatable; unlisted models weigh 1); any weight enables cross-model weighted-fair batch scheduling over GOMAXPROCS execution slots, where a model's long-run share is w over the sum of contending weights")

	fs.BoolVar(&c.logReqs, "log", false, "emit one structured log line per classification (slog, stderr)")
	fs.BoolVar(&c.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving port")
	fs.DurationVar(&c.slowTrace, "slow-trace", 0, "pin traces at or over this end-to-end latency past ring turnover (0 = default 250ms, negative disables)")

	fs.IntVar(&c.fleetN, "fleet", 0, "serve through the sharded fleet tier with this many shard workers (0 = single server)")
	fs.StringVar(&c.fleetBackend, "fleet-workers", "inproc", "fleet shard backend: inproc (goroutine pools in this process) or proc (one snnserve -worker child process per shard)")
	fs.IntVar(&c.fleetHops, "fleet-fallback-hops", 1, "fleet: additional shards a request may be offered after its owner sheds it (0 pins requests to their owner)")
	fs.BoolVar(&c.workerMode, "worker", false, "run as a fleet shard worker: serve on an ephemeral port (unless -addr is explicit) and announce FLEET_WORKER_ADDR=<addr> on stdout")

	fs.BoolVar(&c.selftest, "selftest", false, "run the deterministic load-generator selftest and exit")
	fs.BoolVar(&c.selftestOverload, "selftest-overload", false, "run the overload-resilience selftest (replay-heavy phase, then a past-capacity burst) and exit")
	fs.BoolVar(&c.selftestFleet, "selftest-fleet", false, "run the sharded fleet selftest (routing affinity, per-shard caches, merged telemetry, respawn) and exit")
	fs.BoolVar(&c.selftestLife, "selftest-lifecycle", false, "run the model-lifecycle selftest (hot re-register under load, resident-bound eviction/warm, weighted-fair isolation) and exit")
	fs.StringVar(&c.traceOut, "trace-out", "", "selftest: write the scraped /v1/trace page to this file")
	return c
}

// set reports whether the command line set the named flag.
func (c *cli) set(name string) bool {
	found := false
	c.fs.Visit(func(f *flag.Flag) { found = found || f.Name == name })
	return found
}

// exitPolicy is serve's default early-exit policy for the -steps budget
// with -window as its stability window; -window 0 disables early exit.
func (c *cli) exitPolicy() serve.ExitPolicy {
	exit := serve.DefaultExitPolicy(c.steps)
	exit.StableWindow = min(c.window, exit.MaxSteps)
	if c.window == 0 {
		exit.MinSteps = 0
	}
	return exit
}

func main() {
	c := newCLI(flag.ExitOnError)
	_ = c.fs.Parse(os.Args[1:]) // ExitOnError: a bad command line exits here

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "snnserve: %v\n", err)
		os.Exit(1)
	}
	// snnserve takes no positional arguments: a stray word ends flag
	// parsing and would silently drop every flag after it.
	if c.fs.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q (snnserve takes flags only)", c.fs.Arg(0)))
	}

	inScheme, err := burstsnn.ParseScheme(c.input)
	if err != nil {
		fail(err)
	}
	hidScheme, err := burstsnn.ParseScheme(c.hidden)
	if err != nil {
		fail(err)
	}
	hybrid := burstsnn.NewHybrid(inScheme, hidScheme)
	exit := c.exitPolicy()

	var logger *slog.Logger
	if c.logReqs {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// The one server configuration the flags describe: the single
	// server, each fleet shard, a -worker child and the load-generator
	// selftest all start from it.
	cfg := burstsnn.ServeConfig{
		Addr:               c.addr,
		MaxDelay:           c.maxDelay,
		QueueDepth:         c.queueDepth,
		RequestTimeout:     c.reqTimeout,
		ResponseCacheSize:  c.respCache,
		Degrade:            c.degrade,
		SlowTraceThreshold: c.slowTrace,
		MaxResidentModels:  c.maxResident,
		EvictIdle:          c.evictIdle,
		ModelWeights:       c.weights,
		Logger:             logger,
		EnablePprof:        c.pprofOn,
	}

	if c.selftestLife {
		if err := runLifecycleSelftest(hybrid, exit, logger); err != nil {
			fail(err)
		}
		return
	}

	if c.selftestOverload {
		if err := runOverloadSelftest(hybrid, exit, logger); err != nil {
			fail(err)
		}
		return
	}

	if c.selftestFleet {
		shards := c.fleetN
		if shards < 2 {
			shards = 2
		}
		if err := runFleetSelftest(hybrid, exit, shards, logger); err != nil {
			fail(err)
		}
		return
	}

	if c.selftest {
		// The selftest asserts exact accuracy parity with full-budget
		// inference, so it exits more conservatively than interactive
		// serving: not before step 32, and on a 32-step window unless
		// -window is explicit.
		exit.MinSteps = 32
		if !c.set("window") {
			exit.StableWindow = 32
		}
		if err := runSelftest(hybrid, exit, cfg, c.replicas, c.traceOut); err != nil {
			fail(err)
		}
		return
	}

	settings := experiments.DefaultSettings()
	settings.Log = os.Stderr
	settings.Tiny = c.tiny
	if c.dir != "" {
		settings.ModelDir = c.dir
	}
	lab := experiments.NewLab(settings)

	fmt.Fprintf(os.Stderr, "kernels: %s (detected %s)\n", kernels.ActiveLevel(), kernels.DetectedLevel())

	// buildServer constructs one fully-registered server — the single
	// server below, a fleet shard's in-process worker, or the -worker
	// child's backend all use the same recipe.
	buildServer := func(quiet bool) (*burstsnn.Server, error) {
		srv := burstsnn.NewServer(cfg)
		for _, name := range strings.Split(c.models, ",") {
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
				Steps:       c.steps,
				Exit:        exit,
				Replicas:    c.replicas,
				MaxReplicas: c.maxReplicas,
			}, m.Net, m.Set.Train)
			if err != nil {
				return nil, err
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "serving %s as %s: %d neurons, %d replicas, budget %d steps (DNN acc %.4f)\n",
					name, hybrid.Notation(), info.Info().Neurons, info.Pool().Size(), c.steps, m.DNNAcc)
			}
		}
		return srv, nil
	}

	if c.workerMode {
		workerAddr := c.addr
		if !c.set("addr") {
			workerAddr = "127.0.0.1:0"
		}
		if err := runFleetWorker(buildServer, workerAddr); err != nil {
			fail(err)
		}
		return
	}

	if c.fleetN > 0 {
		if err := runFleetFront(c, buildServer); err != nil {
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
		fmt.Fprintf(os.Stderr, "listening on %s\n", c.addr)
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
func runSelftest(hybrid burstsnn.Hybrid, exit serve.ExitPolicy, cfg burstsnn.ServeConfig, replicas int, traceOut string) error {
	const requests, workers = 200, 32
	steps := exit.MaxSteps
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
				res, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{Model: "digits", Image: s.Image})
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
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
	if err := scrapeTelemetry(client, base, traceOut); err != nil {
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
// uploads it as an artifact).
func scrapeTelemetry(client *http.Client, base, traceOut string) error {
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

// modelWeights is the repeatable -model-weight flag: "name=w" pairs
// collected into the serve.Config.ModelWeights map.
type modelWeights map[string]float64

// pairs returns the weights as sorted "name=w" strings, each one value
// Set accepts.
func (m *modelWeights) pairs() []string {
	parts := make([]string, 0, len(*m))
	for name, w := range *m {
		parts = append(parts, fmt.Sprintf("%s=%g", name, w))
	}
	sort.Strings(parts)
	return parts
}

func (m *modelWeights) String() string {
	if m == nil {
		return ""
	}
	return strings.Join(m.pairs(), ",")
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

// selftestDigits trains the digits MLP the overload, fleet and
// lifecycle selftests share: the same synthetic set and the same weights
// on every run.
func selftestDigits() (*burstsnn.Set, *burstsnn.DNN, error) {
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
	})
	mlp, err := burstsnn.BuildDNN(burstsnn.MLP(1, 28, 28, []int{32}, 10), burstsnn.NewRNG(7))
	if err != nil {
		return nil, nil, err
	}
	burstsnn.Train(mlp, set, burstsnn.NewAdam(0.01), burstsnn.TrainConfig{
		Epochs: 6, BatchSize: 32, Seed: 5,
	})
	return set, mlp, nil
}

// waitGoroutines waits up to within for the goroutine count to fall back
// to baseline (plus two of the runtime's own) after a selftest's
// shutdown, and reports it.
func waitGoroutines(baseline int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			fmt.Printf("shutdown         : goroutines %d (baseline %d)\n", g, baseline)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shutdown leaked goroutines: %d now, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
