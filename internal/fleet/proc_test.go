package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"burstsnn/internal/serve"
)

// TestMain doubles as the fake worker process: when re-exec'd with
// FLEET_TEST_WORKER=1 the binary serves the worker wire protocol
// (announce line, /healthz, /v1/classify, /metrics/shard, /v1/pool)
// without the cost of a real model, so the ProcWorker test pins the
// transport mapping, not the simulator.
func TestMain(m *testing.M) {
	if os.Getenv("FLEET_TEST_WORKER") == "1" {
		runFakeWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

func runFakeWorkerProcess() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		// The real worker's codec: ProcWorker sends the binary frame.
		req := serve.ReadClassify(w, r)
		if req == nil {
			return
		}
		defer req.Release(false)
		if req.Model == "shed" {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(serve.ClassifyResult{
			Model: req.Model, Prediction: len(req.Image) % 10, Steps: 42,
		})
	})
	mux.HandleFunc("GET /metrics/shard", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.ShardStats{
			UptimeSec: 1,
			Models: map[string]serve.ModelShardStats{
				"digits": {RetryAfterSec: 7, PoolSize: 2, PoolMax: 4},
			},
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{
			"models": []serve.Info{{Name: "digits", Classes: 10}},
		})
	})
	mux.HandleFunc("POST /v1/pool", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model    string `json:"model"`
			Replicas int    `json:"replicas"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		if req.Replicas > 4 {
			req.Replicas = 4
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"model": req.Model, "replicas": req.Replicas})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake worker listen:", err)
		os.Exit(1)
	}
	// The contract under test: announce the bound address on stdout.
	fmt.Printf("%s%s\n", WorkerAddrPrefix, ln.Addr().String())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	os.Exit(0)
}

func spawnFakeWorker(t *testing.T) *ProcWorker {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	t.Setenv("FLEET_TEST_WORKER", "1")
	w, err := SpawnProcWorker(bin, nil, 15*time.Second)
	if err != nil {
		t.Fatalf("SpawnProcWorker: %v", err)
	}
	return w
}

// TestProcWorkerWire pins the ProcWorker transport mapping against a
// real child process: spawn + announce + health, 200 → result,
// 429 → serve.ErrOverloaded, stats/models/resize round-trips, and a
// graceful SIGTERM close.
func TestProcWorkerWire(t *testing.T) {
	w := spawnFakeWorker(t)
	closed := false
	defer func() {
		if !closed {
			_ = w.Close()
		}
	}()

	if !w.Healthy() {
		t.Fatal("spawned worker not healthy")
	}
	ctx := context.Background()
	res, err := w.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: make([]float64, 13)})
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if res.Prediction != 3 || res.Steps != 42 {
		t.Errorf("Classify result = %+v", res)
	}
	if _, err := w.Classify(ctx, serve.ClassifyRequest{Model: "shed"}); !errors.Is(err, serve.ErrOverloaded) {
		t.Errorf("429 mapped to %v, want serve.ErrOverloaded", err)
	}
	st, err := w.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if ms := st.Models["digits"]; ms.PoolSize != 2 || ms.PoolMax != 4 {
		t.Errorf("Stats models = %+v", st.Models)
	}
	if got := w.RetryAfter("digits"); got != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", got)
	}
	models, err := w.Models()
	if err != nil || len(models) != 1 || models[0].Name != "digits" {
		t.Errorf("Models = %v, %v", models, err)
	}
	if n, err := w.Resize("digits", 9); err != nil || n != 4 {
		t.Errorf("Resize = %d, %v, want clamp to 4", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closed = true
}

// TestProcWorkerCrash kills the child out from under the client and
// requires the dead-worker taxonomy: Classify fails ErrWorkerDown (the
// supervisor's eviction trigger), Healthy goes false.
func TestProcWorkerCrash(t *testing.T) {
	w := spawnFakeWorker(t)
	defer func() { _ = w.Close() }()

	if err := syscall.Kill(w.Pid(), syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits"})
		if errors.Is(err, ErrWorkerDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Classify after kill: %v, want ErrWorkerDown", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if w.Healthy() {
		t.Error("killed worker reports healthy")
	}
}
