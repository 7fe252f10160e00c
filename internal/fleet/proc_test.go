package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"burstsnn/internal/serve"
)

// TestMain doubles as the fake worker process: when re-exec'd with
// FLEET_TEST_WORKER=1 the binary serves the worker's wire — the announce
// line, the classify stream through serve.StreamServer (the code
// `snnserve -worker` runs) over a fake classifier, /healthz,
// /metrics/shard and /v1/models — without the cost of a real
// model, so these tests pin the transport, not the simulator.
func TestMain(m *testing.M) {
	if os.Getenv("FLEET_TEST_WORKER") == "1" {
		runFakeWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

// fakeStatuses is the fake classifier's model-name switch: each of these
// names fails with the status a real server answers that failure with.
var fakeStatuses = map[string]int{
	"shed":    http.StatusTooManyRequests,
	"gone":    http.StatusNotFound,
	"slow":    http.StatusGatewayTimeout,
	"closing": http.StatusServiceUnavailable,
	"bad":     http.StatusBadRequest,
}

// fakeClassifier answers without a model. A "hold" request waits until
// terminating closes (the fake process's SIGTERM), so tests can keep
// calls in flight; held counts those that arrived.
type fakeClassifier struct {
	held        atomic.Int64
	terminating chan struct{}
}

func newFakeClassifier() *fakeClassifier {
	return &fakeClassifier{terminating: make(chan struct{})}
}

func (c *fakeClassifier) Classify(_ context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	if _, fails := fakeStatuses[req.Model]; fails {
		return serve.ClassifyResult{}, errors.New("fake failure for " + req.Model)
	}
	if req.Model == "hold" {
		c.held.Add(1)
		<-c.terminating
	}
	return serve.ClassifyResult{
		Model: req.Model, Prediction: len(req.Image) % 10, Steps: 42, MaxSteps: 96, EarlyExit: true,
		Margin: 1.0 / 3, InputSpikes: 5, HiddenSpikes: 7, Spikes: 12, RequestID: "f",
	}, nil
}

func (c *fakeClassifier) ClassifyStatus(_ context.Context, model string, _ error) (status, retryAfter int) {
	if status = fakeStatuses[model]; status == http.StatusTooManyRequests {
		retryAfter = 7
	}
	return status, retryAfter
}

// fakeWorkerHandler is the fake worker's HTTP API around stream.
func fakeWorkerHandler(fake *fakeClassifier, stream *serve.StreamServer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET "+serve.StreamPath, stream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "{\"status\":\"ok\",\"held\":%d}\n", fake.held.Load())
	})
	mux.HandleFunc("GET /metrics/shard", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.ShardStats{
			UptimeSec: 1,
			Models: map[string]serve.ModelShardStats{
				"digits": {RetryAfterSec: 7},
			},
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{
			"models": []serve.Info{{Name: "digits", Classes: 10}},
		})
	})
	return mux
}

func runFakeWorkerProcess() {
	fake := newFakeClassifier()
	stream := serve.NewStreamServer(fake)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake worker listen:", err)
		os.Exit(1)
	}
	// The contract under test: announce the bound address on stdout.
	fmt.Printf("%s%s\n", WorkerAddrPrefix, ln.Addr().String())
	srv := &http.Server{Handler: fakeWorkerHandler(fake, stream)}
	go func() { _ = srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		_ = stream.Shutdown(ctx)
		close(drained)
	}()
	// Held requests are answered only after the streams have stopped
	// reading, so their replies arriving is the drain working, not a race
	// won.
	time.Sleep(50 * time.Millisecond)
	close(fake.terminating)
	<-drained
	_ = srv.Shutdown(ctx)
	os.Exit(0)
}

// fakeWorkerFactory spawns fake worker processes (re-execs of this test
// binary).
func fakeWorkerFactory(t *testing.T) WorkerFactory {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	t.Setenv("FLEET_TEST_WORKER", "1")
	return func(int) (Worker, error) { return SpawnProcWorker(bin, nil, 15*time.Second) }
}

func spawnFakeWorker(t *testing.T) *ProcWorker {
	t.Helper()
	w, err := fakeWorkerFactory(t)(0)
	if err != nil {
		t.Fatalf("SpawnProcWorker: %v", err)
	}
	return w.(*ProcWorker)
}

// waitHeld waits until the fake worker at addr holds n requests: it has
// read their frames and started answering them.
func waitHeld(t *testing.T, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hz struct{ Held int }
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
		}
		if err == nil && hz.Held == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker holds %d requests (%v), want %d", hz.Held, err, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// holdCalls starts n "hold" calls on w and returns their errors' channel.
func holdCalls(w *ProcWorker, n int) chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "hold", Image: testImage(i)})
			errs <- err
		}()
	}
	return errs
}

// TestProcWorkerWire pins the ProcWorker mapping against a real child
// process: spawn + announce + health, a classify stream reply decoded
// field for field, 429 → a serve.ShedError with the frame's Retry-After,
// stats/models round-trips, and a graceful SIGTERM close.
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
	want := serve.ClassifyResult{Model: "digits", Prediction: 3, Steps: 42, MaxSteps: 96, EarlyExit: true,
		Margin: 1.0 / 3, InputSpikes: 5, HiddenSpikes: 7, Spikes: 12, RequestID: "f"}
	if res != want {
		t.Errorf("Classify result = %+v, want %+v", res, want)
	}
	_, err = w.Classify(ctx, serve.ClassifyRequest{Model: "shed"})
	var shed *serve.ShedError
	if !errors.Is(err, serve.ErrOverloaded) || !errors.As(err, &shed) || shed.RetryAfter != 7*time.Second {
		t.Errorf("429 mapped to %v, want a serve.ShedError carrying the frame's 7 s", err)
	}
	st, err := w.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if ms := st.Models["digits"]; ms.RetryAfterSec != 7 {
		t.Errorf("Stats models = %+v", st.Models)
	}
	models, err := w.Models()
	if err != nil || len(models) != 1 || models[0].Name != "digits" {
		t.Errorf("Models = %v, %v", models, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closed = true
}

// TestProcWorkerStatusTaxonomy: every status a worker can answer a
// classify with maps to the Worker contract's sentinel, and a fleet
// front over the worker answers a client with that same status — the
// README's one-server/fleet status table, across the process boundary.
func TestProcWorkerStatusTaxonomy(t *testing.T) {
	w := spawnFakeWorker(t)
	f, err := New(Config{Shards: 1, HealthInterval: -1, FallbackHops: -1}, func(int) (Worker, error) { return w, nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := NewFront(f)
	t.Cleanup(func() { _ = front.Shutdown(context.Background()) })
	h := front.Handler()

	cases := []struct {
		model    string
		sentinel error // nil: none of them
		status   int
	}{
		{"digits", nil, http.StatusOK},
		{"shed", serve.ErrOverloaded, http.StatusTooManyRequests},
		{"gone", serve.ErrUnknownModel, http.StatusNotFound},
		{"slow", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"bad", nil, http.StatusBadRequest},
		// Last: a 503 is ErrWorkerDown, and the front marks the shard dead.
		{"closing", ErrWorkerDown, http.StatusServiceUnavailable},
	}
	sentinels := []error{serve.ErrOverloaded, serve.ErrUnknownModel, context.DeadlineExceeded, ErrWorkerDown}
	for _, c := range cases {
		req := serve.ClassifyRequest{Model: c.model, Image: testImage(1)}
		_, err := w.Classify(context.Background(), req)
		for _, s := range sentinels {
			if errors.Is(err, s) != (s == c.sentinel) {
				t.Errorf("%s: Classify error %v; errors.Is(%v) = %v", c.model, err, s, errors.Is(err, s))
			}
		}
		if (err == nil) != (c.status == http.StatusOK) {
			t.Errorf("%s: Classify error %v", c.model, err)
		}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if rec.Code != c.status {
			t.Errorf("%s: front answered %d, want %d (%s)", c.model, rec.Code, c.status, rec.Body)
		}
		if ra := rec.Header().Get("Retry-After"); (ra == "7") != (c.status == http.StatusTooManyRequests) {
			t.Errorf("%s: front answered Retry-After %q; a 429 carries the shed frame's \"7\", no other status one", c.model, ra)
		}
	}
}

// TestProcWorkerCrash kills the child with SIGKILL under 16 in-flight
// calls and requires the dead-worker taxonomy: every call fails
// ErrWorkerDown (the supervisor's eviction trigger) within 5 s, Healthy
// goes false, and Close leaves no goroutine behind.
func TestProcWorkerCrash(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	w := spawnFakeWorker(t)
	const calls = 16
	errs := holdCalls(w, calls)
	waitHeld(t, w.Addr(), calls)

	if err := syscall.Kill(w.Pid(), syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrWorkerDown) {
				t.Errorf("in-flight call after kill: %v, want ErrWorkerDown", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d in-flight calls still waiting 5 s after the kill", calls-i, calls)
		}
	}
	if _, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits"}); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("Classify after kill: %v, want ErrWorkerDown", err)
	}
	if w.Healthy() {
		t.Error("killed worker reports healthy")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > baseline %d after Close\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProcWorkerDrainOnClose: Close sends SIGTERM, and the worker answers
// every frame it has already read before it exits — 16 calls the child
// is holding all complete.
func TestProcWorkerDrainOnClose(t *testing.T) {
	w := spawnFakeWorker(t)
	const calls = 16
	errs := holdCalls(w, calls)
	waitHeld(t, w.Addr(), calls)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call read before SIGTERM: %v", err)
		}
	}
}

// TestProcFleetKillLosesNothing is selftest phase C over processes: a
// fleet of two fake proc workers under concurrent load loses no request
// when one worker is SIGKILLed, and the supervisor respawns it.
func TestProcFleetKillLosesNothing(t *testing.T) {
	f, err := New(Config{Shards: 2, HealthInterval: 50 * time.Millisecond}, fakeWorkerFactory(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })

	var completed, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := serve.ClassifyRequest{Model: "digits", Image: testImage(g*1000 + i%50)}
				if _, err := f.Classify(context.Background(), req); err != nil {
					failures.Add(1)
					t.Errorf("classify across the kill: %v", err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	waitCompleted := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for completed.Load() < n {
			if time.Now().After(deadline) || failures.Load() > 0 {
				t.Fatalf("%d requests completed, waiting for %d", completed.Load(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitCompleted(200)
	victim, ok := f.Worker(0).(*ProcWorker)
	if !ok {
		t.Fatal("shard 0 worker is not a process")
	}
	if err := syscall.Kill(victim.Pid(), syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		snap := f.Snapshot()
		if snap.PerShard[0].Respawns >= 1 && snap.LiveShards == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never respawned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitCompleted(completed.Load() + 200) // traffic flows on the respawned fleet
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests lost across the kill", n)
	}
}
