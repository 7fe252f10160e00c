package fleet

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"burstsnn/internal/serve"
)

// Front is the fleet's HTTP face: the same API surface as one
// serve.Server (POST /v1/classify, GET /v1/models, /healthz, /metrics,
// /metrics/prom), served by consistent-hash routing across the shards.
// Kept off Fleet so the routing core stays listener-free for in-process
// use.
type Front struct {
	f *Fleet

	mu      sync.Mutex
	httpSrv *http.Server
	lnAddr  string
	closed  bool
}

// NewFront wraps a fleet for serving.
func NewFront(f *Fleet) *Front { return &Front{f: f} }

// Fleet returns the routing core.
func (fr *Front) Fleet() *Fleet { return fr.f }

// Handler returns the front tier's HTTP API.
func (fr *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", fr.handleClassify)
	mux.HandleFunc("GET /v1/models", fr.handleModels)
	mux.HandleFunc("DELETE /v1/models/{name}", fr.handleUnregister)
	mux.HandleFunc("GET /healthz", fr.handleHealthz)
	mux.HandleFunc("GET /metrics", fr.handleMetrics)
	mux.HandleFunc("GET /metrics/prom", fr.handleMetricsProm)
	return mux
}

func (fr *Front) handleClassify(w http.ResponseWriter, r *http.Request) {
	wr := serve.ReadClassify(w, r)
	if wr == nil {
		return
	}
	req := wr.ClassifyRequest
	res, err := fr.f.Classify(r.Context(), req)
	// A cached reply means no shard ever queued the image (see
	// serve.WireRequest.Release); the 429 path below still reads it.
	defer wr.Release(err == nil && res.Cached)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, serve.ErrUnknownModel):
			status = http.StatusNotFound
		case errors.Is(err, serve.ErrOverloaded):
			// Every tried shard shed. The hint is the OWNING shard's
			// drain projection: a retry re-hashes to the same owner.
			status = http.StatusTooManyRequests
			secs := int(math.Ceil(fr.f.RetryAfter(req.Model, req.Image).Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		case errors.Is(err, ErrWorkerDown), errors.Is(err, serve.ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		}
		serve.WriteError(w, status, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

func (fr *Front) handleModels(w http.ResponseWriter, _ *http.Request) {
	models, err := fr.f.Models()
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"models": models})
}

// handleUnregister broadcasts DELETE /v1/models/{name} (mode=evict
// archives) to every live shard, mirroring one server's API.
func (fr *Front) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	evict := r.URL.Query().Get("mode") == "evict"
	if err := fr.f.Unregister(name, evict); err != nil {
		// Not-found only when a shard actually said so; anything else
		// (worker down, shutdown, partial broadcast) is the fleet
		// declining, not the model missing.
		status := http.StatusServiceUnavailable
		if errors.Is(err, serve.ErrUnknownModel) {
			status = http.StatusNotFound
		}
		serve.WriteError(w, status, err)
		return
	}
	state := "unregistered"
	if evict {
		state = serve.StateEvicted
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"model": name, "state": state})
}

func (fr *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := fr.f.Snapshot()
	status := "ok"
	if snap.LiveShards == 0 {
		status = "down"
	} else if snap.LiveShards < snap.Shards {
		status = "degraded"
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"uptimeSec":  snap.UptimeSec,
		"shards":     snap.Shards,
		"liveShards": snap.LiveShards,
		"goroutines": runtime.NumGoroutine(),
	})
}

func (fr *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		fr.handleMetricsProm(w, r)
		return
	}
	serve.WriteJSON(w, http.StatusOK, fr.f.Snapshot())
}

func (fr *Front) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = fr.f.writeProm(w)
}

// Serve runs the HTTP front on an existing listener, blocking until
// Shutdown (nil) or a listener error.
func (fr *Front) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: fr.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		ln.Close()
		return serve.ErrClosed
	}
	fr.httpSrv = srv
	fr.lnAddr = ln.Addr().String()
	fr.mu.Unlock()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// ListenAndServe binds addr and serves (see Serve).
func (fr *Front) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return fr.Serve(ln)
}

// Addr returns the bound listen address once Serve runs ("" before).
func (fr *Front) Addr() string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.lnAddr
}

// Shutdown stops the HTTP front, then closes the fleet (supervisor,
// autoscaler, every worker). Safe without a running listener.
func (fr *Front) Shutdown(ctx context.Context) error {
	fr.mu.Lock()
	if fr.closed {
		fr.mu.Unlock()
		return nil
	}
	fr.closed = true
	srv := fr.httpSrv
	fr.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if cerr := fr.f.Close(); err == nil {
		err = cerr
	}
	return err
}
