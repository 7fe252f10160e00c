package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"burstsnn/internal/serve"
)

// stubSystem is an HTTP endpoint that answers request k by k mod 4: a
// good reply, a good reply, a 429, a 200 whose body is the wrong shape.
// Only the first two may count as OK.
func stubSystem(t *testing.T) (*sut, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.ClassifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		good := serve.ClassifyResult{Model: modelName, Prediction: 3, Steps: 18, InputSpikes: 5, HiddenSpikes: 7, Spikes: 12}
		switch served.Add(1) % 4 {
		case 2:
			http.Error(w, "shed", http.StatusTooManyRequests)
		case 3:
			good.Steps = stepBudget + 1
			fallthrough
		default:
			_ = json.NewEncoder(w).Encode(good)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"models":{"` + modelName + `":{}}}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	s := &sut{url: ts.URL + "/v1/classify", metrics: mux, transport: &http.Transport{}}
	t.Cleanup(s.transport.CloseIdleConnections)
	return s, &served
}

func TestClosedLoopAccounting(t *testing.T) {
	s, served := stubSystem(t)
	tr := newTraffic(1, 10, true)
	res, err := drive(context.Background(), s, tr, 3, []windowSpec{
		{dur: 20 * time.Millisecond},
		{dur: 2 * slice, record: true, traced: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d recorded windows, want 1 (the warm-up is not recorded)", len(res))
	}
	win := res[0]
	if win.ok == 0 || win.failed == 0 {
		t.Fatalf("ok %d, failed %d: the stub serves both", win.ok, win.failed)
	}
	if win.attempted() != win.ok+win.failed {
		t.Fatalf("attempted %d != ok %d + failed %d", win.attempted(), win.ok, win.failed)
	}
	// Half of the stub's replies are good; a closed loop of 3 callers can
	// be at most 3 requests off at each window edge.
	if diff := win.ok - win.failed; diff < -6 || diff > 6 {
		t.Fatalf("ok %d vs failed %d: the 429s and wrong-shape 200s must all count as failed", win.ok, win.failed)
	}
	// A failed request has no latency, no sample and no span.
	if len(win.allMs) != win.ok || len(win.samples) != win.ok || len(win.spans) != win.ok {
		t.Fatalf("%d latencies, %d samples, %d spans for %d OK replies",
			len(win.allMs), len(win.samples), len(win.spans), win.ok)
	}
	if win.firstFailure == nil {
		t.Fatal("failures were counted but none was kept for the log")
	}
	if total := int(served.Load()); win.attempted() > total {
		t.Fatalf("window counted %d requests, stub served %d", win.attempted(), total)
	}
	if len(win.latenciesMs) != 2 || len(win.cpuSeconds) != 2 {
		t.Fatalf("%d latency slices and %d CPU slices for a two-slice window", len(win.latenciesMs), len(win.cpuSeconds))
	}
	for _, l := range append(win.latenciesMs, win.allMs) {
		if len(l) == 0 || !sort.Float64sAreSorted(l) {
			t.Fatalf("a slice holds %d latencies, sorted %v: the percentile read needs both", len(l), sort.Float64sAreSorted(l))
		}
	}
	seen := map[uint64]bool{}
	for _, sp := range win.spans {
		if seen[sp.id] {
			t.Fatalf("request id %d has two span records", sp.id)
		}
		seen[sp.id] = true
	}
}

func TestDriveStopsWhenContextEnds(t *testing.T) {
	s, _ := stubSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := drive(ctx, s, newTraffic(1, 10, true), 2, []windowSpec{{dur: time.Minute, record: true}})
	if err == nil {
		t.Fatal("drive returned no error after its context ended mid-window")
	}
}
