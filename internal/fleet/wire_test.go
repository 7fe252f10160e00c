package fleet

import (
	"bytes"
	"context"
	"encoding/json"
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
// speaking to it — the HTTP worker wire without a child process.
func stubProcWorker(t *testing.T, h http.Handler) *ProcWorker {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return newProcWorker(nil, strings.TrimPrefix(ts.URL, "http://"))
}

// TestClassifyStatusParity sends each kind of bad request to one
// serve.Server and to a fleet front — over in-process shards and over
// the HTTP worker wire — and requires the three to answer with the same
// status: a client cannot tell a fleet from a single server by its
// error codes.
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
		{"front/http-worker", front(func(int) (Worker, error) {
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
	goodFrame := serve.AppendFrame(nil, serve.ClassifyRequest{Model: "digits", Image: img})
	const jsonType = "application/json"
	cases := []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"ok", jsonType, marshal(serve.ClassifyRequest{Model: "digits", Image: img}), 200},
		{"ok frame", serve.FrameContentType, goodFrame, 200},
		{"unknown model", jsonType, marshal(serve.ClassifyRequest{Model: "nope", Image: img}), 404},
		{"wrong pixel count", jsonType, marshal(serve.ClassifyRequest{Model: "digits", Image: img[:10]}), 400},
		{"maxSteps out of range", jsonType, marshal(serve.ClassifyRequest{Model: "digits", Image: img, MaxSteps: testSteps + 1}), 400},
		{"malformed JSON", jsonType, []byte(`{"model":"digits","image":[0.5,`), 400},
		{"malformed frame", serve.FrameContentType, goodFrame[:len(goodFrame)-3], 400},
		{"oversize body", jsonType, bytes.Repeat([]byte(" "), 8<<20+1), 413},
		{"oversize frame", serve.FrameContentType, make([]byte, 8<<20+1), 413},
	}
	for _, c := range cases {
		for _, target := range targets {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(c.body))
			req.Header.Set("Content-Type", c.contentType)
			target.h.ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Errorf("%s to %s: status %d, want %d (%s)", c.name, target.name, rec.Code, c.want,
					strings.TrimSpace(rec.Body.String()))
			}
		}
	}
}

// TestProcWorkerConnectionReuse: a ProcWorker's own transport keeps as
// many idle connections as it has had concurrent callers, so repeated
// rounds of N concurrent calls dial N times in total — not N−2 more
// every round, as under http.DefaultTransport's two idle connections
// per host — and Close drops them.
func TestProcWorkerConnectionReuse(t *testing.T) {
	const callers, rounds = 16, 5
	var (
		mu      sync.Mutex
		gate    = make(chan struct{})
		arrived = make(chan struct{}, callers)
		dialed  atomic.Int64
		closed  = make(chan struct{}, rounds*callers) // room for a dial per call, the failure case
	)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := serve.ReadClassify(w, r)
		if req == nil {
			return
		}
		defer req.Release(false)
		// Hold every request of a round open at once, so the round needs
		// one connection per caller.
		mu.Lock()
		g := gate
		mu.Unlock()
		arrived <- struct{}{}
		<-g
		_ = json.NewEncoder(w).Encode(serve.ClassifyResult{Model: req.Model, Steps: len(req.Image)})
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			dialed.Add(1)
		case http.StateClosed:
			closed <- struct{}{}
		}
	}
	ts.Start()
	defer ts.Close()
	w := newProcWorker(nil, strings.TrimPrefix(ts.URL, "http://"))

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits", Image: testImage(c)})
				if err != nil || res.Steps != 28*28 {
					t.Errorf("Classify: %+v, %v", res, err)
				}
			}()
		}
		for c := 0; c < callers; c++ {
			<-arrived
		}
		mu.Lock()
		close(gate)
		gate = make(chan struct{})
		mu.Unlock()
		wg.Wait()
	}
	if n := dialed.Load(); n > callers {
		t.Errorf("%d rounds of %d concurrent calls opened %d connections, want at most %d", rounds, callers, n, callers)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close dropped the idle pool: the server sees every connection end.
	for n := dialed.Load(); n > 0; n-- {
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d connections still open after Close", n, dialed.Load())
		}
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

// TestProcWorkerSendsOneWritePerFrame pins the transport's write buffer:
// headers and frame leave in a single write, so the worker is never
// woken for half a request.
func TestProcWorkerSendsOneWritePerFrame(t *testing.T) {
	w := stubProcWorker(t, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		req := serve.ReadClassify(rw, r)
		if req == nil {
			return
		}
		defer req.Release(false)
		_ = json.NewEncoder(rw).Encode(serve.ClassifyResult{Model: req.Model, Steps: len(req.Image)})
	}))
	var writes atomic.Int64
	dial := w.transport.DialContext
	w.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		return writeCounter{c, &writes}, err
	}
	const calls = 20
	for i := 0; i < calls; i++ {
		res, err := w.Classify(context.Background(), serve.ClassifyRequest{Model: "digits", Image: testImage(i)})
		if err != nil || res.Steps != 28*28 {
			t.Fatalf("Classify: %+v, %v", res, err)
		}
	}
	if n := writes.Load(); n != calls {
		t.Errorf("%d frames of 28×28 pixels took %d writes, want one each", calls, n)
	}
}
