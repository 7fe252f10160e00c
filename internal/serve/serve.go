// Package serve is the online inference-serving subsystem: it turns
// trained-and-converted spiking networks into a concurrent, low-latency
// classification service.
//
// The pieces, composable on their own or behind the HTTP server:
//
//   - Model: a named DNN converted once per (model, hybrid)
//     configuration, with the conversion cached across evict/warm;
//   - Pool: a checkout pool of weight-sharing simulator replicas (the
//     simulator is stateful, so a request holds a replica exclusively);
//   - Classify / ExitPolicy: the early-exit engine — the simulator stops
//     as soon as the readout's top-1 prediction has been stable for a
//     configurable window (optionally with a confidence margin), turning
//     the paper's accuracy-vs-timestep latency win into a serving win;
//   - Batcher: a microbatching queue (max-batch / max-delay) that
//     amortizes replica checkout under load;
//   - Server: the HTTP JSON API (POST /v1/classify, GET /v1/models,
//     GET /v1/trace, /healthz, /metrics — JSON and Prometheus text via
//     /metrics/prom) with per-model metrics, per-request stage tracing
//     (internal/obs), and graceful shutdown; GET /v1/stream upgrades to
//     the binary classify stream a fleet front speaks to its workers.
//
// Everything is deterministic: the same image and policy produce the same
// prediction and step count on any replica, regardless of pool contention
// or batching.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
)

// Config tunes the server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8344").
	Addr string
	// MaxBatch is the microbatch size limit (default 8).
	MaxBatch int
	// MaxDelay is the upper bound of the adaptive forming window: the
	// longest a partial batch waits for company (default 2ms). The live
	// window decays to zero for traffic that waiting does not gather and
	// comes back on evidence that it pays (internal/README.md "Batch
	// forming").
	// Negative dispatches on queue drain.
	MaxDelay time.Duration
	// QueueDepth bounds each model's admission queue; Submits beyond it
	// are shed with ErrOverloaded (HTTP 429 + Retry-After) rather than
	// blocked. Default 4×MaxBatch×GOMAXPROCS — the queue scales with the
	// cores (and so the default pool width) actually draining it, so a
	// wide machine is not throttled by a 1-core queue bound. The old
	// fixed bound is reachable explicitly (snnserve -queue-depth).
	QueueDepth int
	// RequestTimeout bounds one classification end to end (default 30s).
	// The resulting deadline also drives admission: a request whose
	// remaining deadline is below the projected queue wait is shed
	// immediately (429) instead of queued to time out.
	RequestTimeout time.Duration
	// ResponseCacheSize bounds each model's cross-batch
	// (image-hash, policy) → Outcome response cache: replayed requests
	// are answered without a queue slot or replica checkout, with
	// pixel-verified hits (collisions degrade to misses — see
	// ResponseCache). 0 uses DefaultResponseCacheEntries; negative
	// disables the cache. Cached outcomes are byte-identical to fresh
	// classification (the simulator is deterministic), so the cache is
	// on by default.
	ResponseCacheSize int
	// Degrade enables graceful degradation: a per-model controller
	// EWMAs admission-queue pressure and, while it is high, serves every
	// admitted request under a tightened exit policy (halved step
	// budget — see DegradeController.Tighten), relaxing again on
	// recovery. Off by default: degraded outcomes intentionally differ
	// from the full-budget ones, so the trade is opt-in. Mode and
	// pressure are visible in /metrics, /metrics/prom, and /healthz.
	Degrade bool
	// InjectLatency artificially extends every batch's replica hold time
	// (overload-testing hook used by the selftest to saturate a pool
	// deterministically; zero in production).
	InjectLatency time.Duration
	// MaxResidentModels bounds how many models stay resident at once
	// (0 = unbounded). Registering or warming past the bound evicts the
	// least-recently-used other model: its queue drains on the live pool,
	// the pool is released, and the conversion + metrics are archived so
	// the next request for the name warms it back in transparently (see
	// internal/README.md "Model lifecycle & fairness").
	MaxResidentModels int
	// EvictIdle, when positive, evicts any resident model that has served
	// no request for this long (same archive/warm cycle as the resident
	// bound). Zero disables idle eviction.
	EvictIdle time.Duration
	// FairSlots is the weighted-fair dispatcher's execution-slot count
	// (default GOMAXPROCS). The dispatcher runs iff ModelWeights is
	// non-empty.
	FairSlots int
	// ModelWeights assigns fair-share weights by model name (unlisted
	// models weigh 1; weights ≤ 0 are treated as 1) and, when non-empty,
	// enables the cross-model weighted-fair dispatcher: every batch
	// acquires one of FairSlots slots before replica checkout, and slots
	// are granted across models in weighted start-time-fair order, so one
	// saturated model cannot starve the others' share of the machine.
	ModelWeights map[string]float64
	// SlowTraceThreshold pins any request at or over this end-to-end
	// latency into the slowest-retained trace set, so tail spikes
	// survive ring turnover until scraped (default 250ms; negative
	// disables pinning).
	SlowTraceThreshold time.Duration
	// Logger, when set, emits one structured line per classification
	// (request ID, model, stage spans, outcome) — `snnserve -log`.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler — `snnserve -pprof`. Off by default: profiling
	// endpoints are opt-in on a serving port.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8344"
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.FairSlots <= 0 {
		c.FairSlots = runtime.GOMAXPROCS(0)
	}
	if c.SlowTraceThreshold == 0 {
		c.SlowTraceThreshold = 250 * time.Millisecond
	}
	return c
}

// ClassifyRequest is the POST /v1/classify body.
type ClassifyRequest struct {
	// Model names a registered model.
	Model string `json:"model"`
	// Image is the flat CHW pixel vector in [0,1]; its length must equal
	// the model's input size.
	Image []float64 `json:"image"`
	// MaxSteps overrides the model's per-request budget (0 = model
	// default; capped at the model's configured budget).
	MaxSteps int `json:"maxSteps,omitempty"`
	// NoEarlyExit forces the full step budget (for A/B-ing the early-exit
	// engine against fixed-latency inference).
	NoEarlyExit bool `json:"noEarlyExit,omitempty"`
}

// ClassifyResult is the POST /v1/classify response. cmd/snneval -json
// emits the same schema per image, so offline and online results are
// directly comparable.
type ClassifyResult struct {
	Model      string `json:"model"`
	Prediction int    `json:"prediction"`
	// Label and Correct are set by offline evaluation (snneval -json),
	// where ground truth is known; the server omits them.
	Label   *int  `json:"label,omitempty"`
	Correct *bool `json:"correct,omitempty"`
	// Steps is the simulated step count; EarlyExit reports whether the
	// engine stopped before MaxSteps.
	Steps     int  `json:"steps"`
	MaxSteps  int  `json:"maxSteps"`
	EarlyExit bool `json:"earlyExit"`
	// Margin is the mean per-step readout gap top1−top2 at exit.
	Margin float64 `json:"margin"`
	// Spike counts over the run (the paper's efficiency metric).
	InputSpikes  int `json:"inputSpikes"`
	HiddenSpikes int `json:"hiddenSpikes"`
	Spikes       int `json:"spikes"`
	// LatencyMs is wall-clock time including queueing and batching.
	LatencyMs float64 `json:"latencyMs"`
	// Cached marks a response served from the cross-batch response cache
	// (no queue wait, no simulation); Degraded marks a request served
	// under the degraded-mode tightened exit policy.
	Cached   bool `json:"cached,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// RequestID identifies this request in the server's trace ring: the
	// matching GET /v1/trace entry carries the same id with the
	// per-stage breakdown.
	RequestID string `json:"requestId,omitempty"`
}

// Server is the inference-serving frontend: a lifecycle table of models,
// one microbatching queue per resident model, and the HTTP API. Each
// resident model is one entry — an atomically-swapped (model, batcher)
// pair — so a request can never pair one registration's weights with
// another's queue (see lifecycle.go for the registration/eviction/warming
// state machine).
type Server struct {
	cfg   Config
	start time.Time
	// traces retains the last traceCapacity request traces plus the
	// slowest for GET /v1/trace; reqID numbers requests.
	traces *obs.Ring
	reqID  atomic.Uint64
	// fair is the cross-model weighted-fair slot dispatcher (nil unless
	// Config.ModelWeights is set).
	fair *FairDispatcher
	// stream serves GET /v1/stream, the fleet front's classify stream.
	stream *StreamServer

	// mu guards the lifecycle table: entries (resident models) and
	// archive (evicted ones) — a name is in one or neither — plus the
	// warms and epochs that move names between them.
	mu      sync.Mutex
	entries map[string]*entry
	archive map[string]*archived
	warming map[string]*warmOp
	// epochs counts installs and removals per model name. A warm leader
	// samples the epoch when it claims the singleflight and installs only
	// if it is unchanged, so a restore can never clobber a newer
	// registration (or resurrect a name removed mid-warm). Never deleted:
	// a fresh epoch of 0 after removal could alias a sampled one.
	epochs  map[string]uint64
	httpSrv *http.Server
	lnAddr  string
	closed  bool

	// houseStop/houseDone bracket the housekeeping goroutine (idle
	// eviction and autoscaling).
	houseStop chan struct{}
	houseDone chan struct{}
}

// traceCapacity bounds each server's recent-trace ring.
const traceCapacity = 256

// New builds a Server with no models.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		entries: map[string]*entry{},
		archive: map[string]*archived{},
		warming: map[string]*warmOp{},
		epochs:  map[string]uint64{},

		houseStop: make(chan struct{}),
		houseDone: make(chan struct{}),
	}
	s.stream = NewStreamServer(s)
	if len(cfg.ModelWeights) > 0 {
		s.fair = NewFairDispatcher(cfg.FairSlots)
	}
	thr := cfg.SlowTraceThreshold
	if thr < 0 {
		thr = 0 // pinning disabled
	}
	s.traces = obs.NewRing(traceCapacity, 32, thr)
	go s.housekeep()
	return s
}

// Traces exposes the server's trace ring for in-process consumers like
// the selftest.
func (s *Server) Traces() *obs.Ring { return s.traces }

// Model returns the named resident model.
func (s *Server) Model(name string) (*Model, error) {
	s.mu.Lock()
	e := s.entries[name]
	s.mu.Unlock()
	if e == nil {
		return nil, errUnknownModel(name)
	}
	return e.model, nil
}

// Models returns resident and evicted models' Infos, sorted by name.
// Evicted entries carry State "evicted" and zero replicas.
func (s *Server) Models() []Info {
	s.mu.Lock()
	infos := make([]Info, 0, len(s.entries)+len(s.archive))
	for _, e := range s.entries {
		infos = append(infos, e.model.Info())
	}
	for _, a := range s.archive {
		infos = append(infos, a.info())
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// known reports whether name is resident or evicted — whether a
// Classify for it can be served, directly or after a warm.
func (s *Server) known(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[name] != nil || s.archive[name] != nil
}

// Register converts a model and makes it resident with a live request
// queue. Re-registering a name hot-swaps it: the (model, batcher) pair
// is replaced atomically — no request can pair the new model's weights
// with the old queue or vice versa — and the displaced queue hands its
// requests to the new one, so a swap under load costs latency, never
// errors. If the install pushes the resident count past
// Config.MaxResidentModels, the least-recently-used other model is
// evicted.
func (s *Server) Register(cfg ModelConfig, net *dnn.Network, normSamples []dataset.Sample) (*Model, error) {
	m, err := prepare(cfg, net, normSamples)
	if err != nil {
		return nil, err
	}
	e, err := s.installModel(m)
	if err != nil {
		return nil, err
	}
	s.enforceResidentBound(cfg.Name)
	return e.model, nil
}

// RegisterFile loads a dnn.SaveModelFile model and registers it.
func (s *Server) RegisterFile(cfg ModelConfig, path string, normSamples []dataset.Sample) (*Model, error) {
	_, net, err := dnn.LoadModelFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", cfg.Name, err)
	}
	return s.Register(cfg, net, normSamples)
}

// Classify runs one request through the model's batching queue and
// replica pool. It is the in-process path the HTTP handler, the selftest
// load generator, and offline evaluation all share. An evicted model is
// warmed back in transparently (the request blocks behind the
// singleflight restore); a request that races a hot swap or eviction
// re-resolves the entry instead of failing.
func (s *Server) Classify(ctx context.Context, req ClassifyRequest) (ClassifyResult, error) {
	rid := s.requestID()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	began := time.Now()
	var (
		m      *Model
		policy ExitPolicy
		out    Outcome
		stages obs.StageTimes
		flags  SubmitFlags
		err    error
	)
	for attempt := 0; ; attempt++ {
		var e *entry
		e, err = s.resolveEntry(ctx, req.Model)
		if err != nil {
			return ClassifyResult{}, err
		}
		m = e.model
		if len(req.Image) != m.InputSize() {
			m.Metrics().ObserveAdmissionError()
			return ClassifyResult{}, fmt.Errorf("serve: model %q expects %d pixels, got %d",
				req.Model, m.InputSize(), len(req.Image))
		}
		policy = m.Config().Exit
		if req.MaxSteps != 0 {
			if req.MaxSteps < 0 || req.MaxSteps > m.Config().Steps {
				m.Metrics().ObserveAdmissionError()
				return ClassifyResult{}, fmt.Errorf("serve: maxSteps must be in [1,%d], got %d",
					m.Config().Steps, req.MaxSteps)
			}
			policy.MaxSteps = req.MaxSteps
			if policy.MinSteps > policy.MaxSteps {
				policy.MinSteps = policy.MaxSteps
			}
		}
		if req.NoEarlyExit {
			policy.StableWindow = 0
		}
		e.touch()
		out, stages, flags, err = e.batcher.SubmitTraced(ctx, req.Image, policy)
		if err != nil && errors.Is(err, ErrClosed) && attempt < 3 && !s.isClosed() {
			// The entry was evicted or unregistered between resolve and
			// submit: re-resolve (warming the model back in if it was
			// evicted; 404ing if it is truly gone). Hot swaps never land
			// here — the displaced batcher forwards to its successor.
			continue
		}
		break
	}
	latency := time.Since(began)
	if err != nil {
		// Split error accounting three ways: overload sheds (queue full,
		// projected-wait refusal, deadline expiry, cancellation) are
		// distinguishable from bad-input/shutdown admission errors, and
		// both from failures inside batch execution.
		switch {
		case isShedError(err):
			m.Metrics().ObserveShed()
		case isAdmissionError(err):
			m.Metrics().ObserveAdmissionError()
		default:
			m.Metrics().ObserveSimError()
		}
		s.record(rid, req.Model, began, latency, stages, out, flags, err)
		return ClassifyResult{}, err
	}
	if flags.Degraded {
		m.Metrics().ObserveDegraded()
	}
	m.Metrics().Observe(out, latency)
	if !flags.Cached {
		// A cache hit never entered the pipeline: only Observe's
		// end-to-end span, so the per-stage histograms stay pure
		// measurements of executed work.
		m.Metrics().ObserveStages(stages)
	}
	s.record(rid, req.Model, began, latency, stages, out, flags, nil)
	return ClassifyResult{
		Model:        req.Model,
		Prediction:   out.Prediction,
		Steps:        out.Steps,
		MaxSteps:     policy.MaxSteps,
		EarlyExit:    out.EarlyExit,
		Margin:       out.Margin,
		InputSpikes:  out.InputSpikes,
		HiddenSpikes: out.HiddenSpikes,
		Spikes:       out.TotalSpikes(),
		LatencyMs:    float64(latency) / float64(time.Millisecond),
		Cached:       flags.Cached,
		Degraded:     flags.Degraded,
		RequestID:    rid,
	}, nil
}

// requestID returns the next request id, the key its trace is looked up
// by in the ring.
func (s *Server) requestID() string {
	return strconv.FormatUint(s.reqID.Add(1), 16)
}

// isShedError reports whether err is an overload shed: the admission
// plane refused the request (full queue, projected wait past the
// deadline) or its deadline/cancellation fired before execution
// completed. Sheds are counted separately (sheddedRequests) so overload
// is distinguishable from bad input and shutdown.
func isShedError(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// isAdmissionError reports whether err happened before the request
// simulated without being an overload shed: today that is batcher
// shutdown (input validation errors are counted at the call site).
func isAdmissionError(err error) bool {
	return errors.Is(err, ErrClosed)
}

// record adds the request's trace to the ring and emits the structured
// request log line when a Logger is set.
func (s *Server) record(rid, model string, began time.Time, latency time.Duration,
	stages obs.StageTimes, out Outcome, flags SubmitFlags, err error) {
	tr := obs.Trace{
		ID:         rid,
		Model:      model,
		Start:      began,
		Steps:      out.Steps,
		EarlyExit:  out.EarlyExit,
		Prediction: out.Prediction,
		Deduped:    flags.Deduped,
		Cached:     flags.Cached,
		Degraded:   flags.Degraded,
	}
	tr.SetTimes(stages, latency)
	if err != nil {
		tr.Error = err.Error()
	}
	s.traces.Add(tr)
	if l := s.cfg.Logger; l != nil {
		attrs := []slog.Attr{
			slog.String("id", rid),
			slog.String("model", model),
			slog.Float64("totalMs", tr.TotalMs),
			slog.Float64("queueMs", tr.QueueMs),
			slog.Float64("simulateMs", tr.SimulateMs),
			slog.Int("steps", out.Steps),
			slog.Bool("earlyExit", out.EarlyExit),
		}
		if flags.Deduped {
			attrs = append(attrs, slog.Bool("deduped", true))
		}
		if flags.Cached {
			attrs = append(attrs, slog.Bool("cached", true))
		}
		if flags.Degraded {
			attrs = append(attrs, slog.Bool("degraded", true))
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
			l.LogAttrs(context.Background(), slog.LevelWarn, "classify", attrs...)
			return
		}
		attrs = append(attrs, slog.Int("prediction", out.Prediction))
		l.LogAttrs(context.Background(), slog.LevelInfo, "classify", attrs...)
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleUnregister)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/prom", s.handleMetricsProm)
	mux.HandleFunc("GET /metrics/shard", s.handleShardStats)
	mux.Handle("GET "+StreamPath, s.stream)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	wr := ReadClassify(w, r)
	if wr == nil {
		return
	}
	req := wr.ClassifyRequest
	res, err := s.Classify(r.Context(), req)
	wr.Release(err == nil && res.Cached)
	if err != nil {
		status, retryAfter := s.ClassifyStatus(r.Context(), req.Model, err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// ClassifyErrorStatus is the HTTP status POST /v1/classify answers a
// failed classify with, on a server and on a fleet front alike. ctx is
// the request's: once it is done the client has gone. Anything the table
// does not name is the request's own fault: 400.
func ClassifyErrorStatus(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		// Shed at admission: the caller adds a Retry-After.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), context.Cause(ctx) != nil:
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		// The server-side RequestTimeout expired (overload), not a
		// malformed request.
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// ClassifyStatus is the HTTP status of a failed Classify for model —
// what POST /v1/classify answers and what a classify stream's reply
// carries — and, for a 429, the Retry-After seconds: when the model's
// queue should have drained enough to try again.
func (s *Server) ClassifyStatus(ctx context.Context, model string, err error) (status, retryAfter int) {
	status = ClassifyErrorStatus(ctx, err)
	if status == http.StatusTooManyRequests {
		retryAfter = RetryAfterSeconds(err)
	}
	if !s.known(model) {
		status = http.StatusNotFound
	}
	return status, retryAfter
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	// Evicted models stay listed (state "evicted", 0 replicas) — they
	// are still servable, one warm away.
	WriteJSON(w, http.StatusOK, map[string]any{"models": s.Models()})
}

// handleTrace serves the recent-trace ring: the newest traces (up to
// ?n=, default 32, capped at the ring's capacity) plus the pinned
// slowest set, newest/slowest first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		n = v
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"recent":          s.traces.Recent(n),
		"slow":            s.traces.Slow(),
		"slowThresholdMs": float64(s.traces.SlowThreshold()) / float64(time.Millisecond),
		"capacity":        s.traces.Capacity(),
	})
}

// buildInfo returns the main module path and version from the embedded
// build info ("unknown" outside module builds, e.g. some test binaries).
func buildInfo() (path, version string) {
	path, version = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			path = bi.Main.Path
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
	}
	return path, version
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	path, version := buildInfo()
	// Per-model overload state: degraded-mode status and the smoothed
	// queue-pressure signal driving it, so a health probe sees "up but
	// degraded" without parsing /metrics.
	overload := map[string]any{}
	s.mu.Lock()
	for name, e := range s.entries {
		mode, pressure := e.batcher.DegradeState()
		overload[name] = map[string]any{"mode": mode, "queuePressure": pressure}
	}
	s.mu.Unlock()
	resident, evicted, warmingN := s.lifecycleCounts()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptimeSec":  time.Since(s.start).Seconds(),
		"module":     path,
		"version":    version,
		"goVersion":  runtime.Version(),
		"goroutines": runtime.NumGoroutine(),
		"models":     resident,
		"lifecycle": map[string]int{
			"resident": resident, "evicted": evicted, "warming": warmingN,
		},
		"overload": overload,
		"kernels": map[string]string{
			// active is the tier actually dispatching (after any
			// KERNELS_LEVEL / ForceLevel override); detected is what CPUID
			// probing found — a mismatch means an override is in effect.
			"active":   kernels.ActiveLevel(),
			"detected": kernels.DetectedLevel(),
		},
	})
}

// snapshotModels collects one Snapshot per known model — resident or
// evicted (retained metrics, zero live gauges) — with the live gauges
// (queue depth, pool checkouts, fair share) filled in at scrape time.
func (s *Server) snapshotModels() map[string]Snapshot {
	models := map[string]Snapshot{}
	for _, row := range s.statRows() {
		models[row.name] = s.fillSnapshot(row)
	}
	return models
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.handleMetricsProm(w, r)
		return
	}
	resident, evicted, warmingN := s.lifecycleCounts()
	WriteJSON(w, http.StatusOK, map[string]any{
		"uptimeSec": time.Since(s.start).Seconds(),
		"lifecycle": map[string]int{
			"resident": resident, "evicted": evicted, "warming": warmingN,
		},
		"models": s.snapshotModels(),
	})
}

// WriteJSON answers status with v as indented JSON. It encodes v before
// the header goes out, so a value JSON cannot carry (a NaN float)
// answers 500 with an error body, never a status with no body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.MarshalIndent(map[string]string{"error": "encoding the response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// WriteError answers status with {"error": err}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ListenAndServe starts the HTTP server on cfg.Addr and blocks until
// Shutdown (returning nil) or a listener error.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve runs the HTTP server on an existing listener (useful for
// ephemeral ports) and blocks like ListenAndServe.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.httpSrv = srv
	s.lnAddr = ln.Addr().String()
	s.mu.Unlock()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Addr returns the bound listen address once Serve is running ("" before).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lnAddr
}

// Shutdown gracefully stops the server: the HTTP listener stops accepting,
// in-flight requests finish (bounded by ctx), every classify stream
// answers the frames it has read and closes, housekeeping stops,
// then every model queue drains. Safe to call without a running HTTP
// server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv := s.httpSrv
	batchers := make([]*Batcher, 0, len(s.entries))
	for _, e := range s.entries {
		batchers = append(batchers, e.batcher)
	}
	s.mu.Unlock()

	close(s.houseStop)
	<-s.houseDone
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	// The streams' in-flight frames still need the batchers.
	if serr := s.stream.Shutdown(ctx); err == nil {
		err = serr
	}
	for _, b := range batchers {
		b.Close()
	}
	return err
}
