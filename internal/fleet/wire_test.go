package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burstsnn/internal/serve"
)

// stubProcWorker serves h on a loopback socket and returns a ProcWorker
// speaking to it — the worker wire without a child process.
func stubProcWorker(t *testing.T, h http.Handler) *ProcWorker {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	w := newProcWorker(nil, strings.TrimPrefix(ts.URL, "http://"))
	if err := w.openStream(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// TestClassifyStatusParity sends each kind of bad request to one
// serve.Server and to a fleet front — over in-process shards and over
// the classify stream to worker servers — and requires the three to
// answer with the same status: a client cannot tell a fleet from a
// single server by its error codes. A request whose client has already
// gone is a 503 everywhere, not a 400 at the front.
func TestClassifyStatusParity(t *testing.T) {
	single := newShardServer(t, serve.Config{})
	t.Cleanup(func() { _ = single.Shutdown(context.Background()) })
	front := func(factory WorkerFactory) http.Handler {
		f, err := New(Config{Shards: 2, HealthInterval: -1}, factory)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fr := NewFront(f)
		t.Cleanup(func() { _ = fr.Shutdown(context.Background()) })
		return fr.Handler()
	}
	targets := []struct {
		name string
		h    http.Handler
	}{
		{"server", single.Handler()},
		{"front/inproc", front(inprocFactory(t, serve.Config{}))},
		{"front/stream-worker", front(func(int) (Worker, error) {
			srv := newShardServer(t, serve.Config{})
			t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
			return stubProcWorker(t, srv.Handler()), nil
		})},
	}

	marshal := func(req serve.ClassifyRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	img := testImage(3)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		body []byte
		ctx  context.Context
		want int
	}{
		{"ok", marshal(serve.ClassifyRequest{Model: "digits", Image: img}), nil, 200},
		{"unknown model", marshal(serve.ClassifyRequest{Model: "nope", Image: img}), nil, 404},
		{"wrong pixel count", marshal(serve.ClassifyRequest{Model: "digits", Image: img[:10]}), nil, 400},
		{"maxSteps out of range", marshal(serve.ClassifyRequest{Model: "digits", Image: img, MaxSteps: testSteps + 1}), nil, 400},
		{"malformed JSON", []byte(`{"model":"digits","image":[0.5,`), nil, 400},
		{"oversize body", bytes.Repeat([]byte(" "), 8<<20+1), nil, 413},
		// A fresh image, so no response cache answers it.
		{"client gone", marshal(serve.ClassifyRequest{Model: "digits", Image: testImage(4)}), gone, 503},
	}
	for _, c := range cases {
		for _, target := range targets {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(c.body))
			if c.ctx != nil {
				req = req.WithContext(c.ctx)
			}
			req.Header.Set("Content-Type", "application/json")
			target.h.ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Errorf("%s to %s: status %d, want %d (%s)", c.name, target.name, rec.Code, c.want,
					strings.TrimSpace(rec.Body.String()))
			}
		}
	}
}

// TestProcRepliesExact: for the same requests a fleet over process
// workers answers the same ClassifyResult as a fleet over in-process
// ones — every field but latencyMs and requestId, margin bit for bit —
// including the cached replays.
func TestProcRepliesExact(t *testing.T) {
	fleetOver := func(factory WorkerFactory) *Fleet {
		f, err := New(Config{Shards: 2, HealthInterval: -1}, factory)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
	inproc := fleetOver(inprocFactory(t, serve.Config{}))
	proc := fleetOver(func(int) (Worker, error) {
		return stubProcWorker(t, newShardServer(t, serve.Config{}).Handler()), nil
	})
	_, set := testModel(t)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			req := serve.ClassifyRequest{Model: "digits", Image: set.Test[i].Image, NoEarlyExit: i == 5}
			want, err := inproc.Classify(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := proc.Classify(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Margin) != math.Float64bits(want.Margin) {
				t.Errorf("round %d image %d: margin %x, in process %x", round, i,
					math.Float64bits(got.Margin), math.Float64bits(want.Margin))
			}
			got.LatencyMs, got.RequestID = want.LatencyMs, want.RequestID
			if got != want {
				t.Errorf("round %d image %d: %+v, in process %+v", round, i, got, want)
			}
		}
	}
}

// TestProcWorkerOneConnection: a ProcWorker carries every classify on
// its one stream however many callers it has at once — sixteen calls held
// in flight together, then rounds of sixteen more, open one connection.
func TestProcWorkerOneConnection(t *testing.T) {
	const callers = 16
	fake := newFakeClassifier()
	var dialed atomic.Int64
	ts := httptest.NewUnstartedServer(serve.NewStreamServer(fake))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	w := newProcWorker(nil, strings.TrimPrefix(ts.URL, "http://"))
	if err := w.openStream(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	errs := holdCalls(w, callers)
	deadline := time.Now().Add(10 * time.Second)
	for fake.held.Load() < callers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls reached the worker", fake.held.Load(), callers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(fake.terminating)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("held call: %v", err)
		}
	}
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits", Image: testImage(c)})
				if err != nil || res.Prediction != 28*28%10 {
					t.Errorf("Classify: %+v, %v", res, err)
				}
			}()
		}
		wg.Wait()
	}
	if n := dialed.Load(); n != 1 {
		t.Errorf("%d calls from %d concurrent callers opened %d connections, want 1", 6*callers, callers, n)
	}
}

// writeCounter counts the Write calls a connection sees.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestProcWorkerOneWritePerFrame: each request leaves in a single write,
// so the worker is never woken for half a frame.
func TestProcWorkerOneWritePerFrame(t *testing.T) {
	ts := httptest.NewServer(serve.NewStreamServer(newFakeClassifier()))
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	conn, br, err := serve.DialStream(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	w := newProcWorker(nil, addr)
	w.attach(writeCounter{conn, &writes}, br)
	defer w.Close()
	const calls = 20
	for i := 0; i < calls; i++ {
		res, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits", Image: testImage(i)})
		if err != nil || res.Prediction != 28*28%10 {
			t.Fatalf("Classify: %+v, %v", res, err)
		}
	}
	if n := writes.Load(); n != calls {
		t.Errorf("%d frames of 28×28 pixels took %d writes, want one each", calls, n)
	}
}
