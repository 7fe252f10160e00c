package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"burstsnn/internal/obs"
)

// classifySome pushes n distinct test images through the server.
func classifySome(t *testing.T, s *Server, n int) []ClassifyResult {
	t.Helper()
	_, set := testModel(t)
	out := make([]ClassifyResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := s.Classify(context.Background(), ClassifyRequest{
			Model: "digits", Image: set.Test[i%len(set.Test)].Image,
		})
		if err != nil {
			t.Fatalf("Classify %d: %v", i, err)
		}
		out = append(out, res)
	}
	return out
}

func TestRequestIDAndTraceRing(t *testing.T) {
	s := testServer(t, Config{})
	results := classifySome(t, s, 6)
	seen := map[string]bool{}
	for _, res := range results {
		if res.RequestID == "" {
			t.Fatal("RequestID empty with tracing enabled")
		}
		if seen[res.RequestID] {
			t.Fatalf("duplicate RequestID %q", res.RequestID)
		}
		seen[res.RequestID] = true
	}
	traces := s.Traces().Recent(0)
	if len(traces) != len(results) {
		t.Fatalf("ring holds %d traces, want %d", len(traces), len(results))
	}
	byID := map[string]obs.Trace{}
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	for _, res := range results {
		tr, ok := byID[res.RequestID]
		if !ok {
			t.Fatalf("result id %q missing from ring", res.RequestID)
		}
		if tr.Model != "digits" || tr.Prediction != res.Prediction || tr.Steps != res.Steps {
			t.Errorf("trace %q = %+v does not match result %+v", res.RequestID, tr, res)
		}
		if tr.SimulateMs <= 0 || tr.EncodeMs <= 0 || tr.TotalMs <= 0 {
			t.Errorf("trace %q missing stage spans: %+v", res.RequestID, tr)
		}
		if tr.QueueMs < 0 || tr.TotalMs < tr.SimulateMs {
			t.Errorf("trace %q spans inconsistent: %+v", res.RequestID, tr)
		}
	}
}

func TestSlowTracePinning(t *testing.T) {
	// Any measurable request is "slow" at a 1ns threshold.
	s := testServer(t, Config{SlowTraceThreshold: time.Nanosecond})
	classifySome(t, s, 3)
	slow := s.Traces().Slow()
	if len(slow) != 3 {
		t.Fatalf("pinned %d slow traces, want 3", len(slow))
	}
	for _, tr := range slow {
		if !tr.Slow {
			t.Errorf("pinned trace %q not marked slow", tr.ID)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	classifySome(t, s, 5)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/trace?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Recent          []obs.Trace `json:"recent"`
		Slow            []obs.Trace `json:"slow"`
		SlowThresholdMs float64     `json:"slowThresholdMs"`
		Capacity        int         `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(page.Recent) != 3 {
		t.Fatalf("recent = %d traces, want 3 (n=3)", len(page.Recent))
	}
	if page.SlowThresholdMs != 250 {
		t.Errorf("slowThresholdMs = %v, want default 250", page.SlowThresholdMs)
	}
	if page.Capacity < 3 {
		t.Errorf("capacity = %d", page.Capacity)
	}

	if resp, err = http.Get(ts.URL + "/v1/trace?n=bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n = %s, want 400", resp.Status)
	}
}

func TestErrorSplitCounters(t *testing.T) {
	s := testServer(t, Config{})
	m, err := s.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	// Validation rejections are admission errors.
	if _, err := s.Classify(context.Background(), ClassifyRequest{
		Model: "digits", Image: []float64{1, 2, 3},
	}); err == nil {
		t.Fatal("short image accepted")
	}
	if _, err := s.Classify(context.Background(), ClassifyRequest{
		Model: "digits", Image: make([]float64, 28*28), MaxSteps: -1,
	}); err == nil {
		t.Fatal("negative MaxSteps accepted")
	}
	// An already-canceled context counts as a shed: the caller's deadline
	// budget was gone before the request reached a replica.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Classify(ctx, ClassifyRequest{
		Model: "digits", Image: make([]float64, 28*28),
	}); err == nil {
		t.Fatal("canceled context classified")
	}
	snap := m.Metrics().Snapshot()
	if snap.AdmissionErrors != 2 {
		t.Errorf("AdmissionErrors = %d, want 2", snap.AdmissionErrors)
	}
	if snap.SheddedRequests != 1 {
		t.Errorf("SheddedRequests = %d, want 1 (canceled context)", snap.SheddedRequests)
	}
	if snap.SimulationErrors != 0 {
		t.Errorf("SimulationErrors = %d, want 0", snap.SimulationErrors)
	}
	if snap.Errors != 3 {
		t.Errorf("Errors = %d, want 3 (sum of the split)", snap.Errors)
	}
}

func TestMetricsStagesAndGauges(t *testing.T) {
	s := testServer(t, Config{})
	classifySome(t, s, 4)
	// A batch replies before it returns its replica, so the pool goes idle
	// a moment after the last Classify returns (milliseconds, under -race
	// on a busy host).
	waitFor(t, func() bool { return s.snapshotModels()["digits"].PoolInFlight == 0 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Models map[string]Snapshot `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("decode: %v", err)
	}
	snap, ok := page.Models["digits"]
	if !ok {
		t.Fatal("no digits snapshot")
	}
	for _, stage := range []string{"queue", "form", "encode", "simulate", "readout", "total"} {
		st, ok := snap.Stages[stage]
		if !ok {
			t.Fatalf("stage %q missing from snapshot", stage)
		}
		if st.Count != 4 {
			t.Errorf("stage %q count = %d, want 4", stage, st.Count)
		}
	}
	if sim := snap.Stages["simulate"]; sim.Mean <= 0 || sim.P99 < sim.P50 {
		t.Errorf("simulate stats implausible: %+v", sim)
	}
	if snap.PoolSize != 4 {
		t.Errorf("PoolSize = %d, want 4 replicas", snap.PoolSize)
	}
	if snap.QueueDepth != 0 || snap.PoolInFlight != 0 {
		t.Errorf("idle gauges = depth %d, in-flight %d, want 0", snap.QueueDepth, snap.PoolInFlight)
	}
}

func TestHealthzInfo(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status     string  `json:"status"`
		UptimeSec  float64 `json:"uptimeSec"`
		GoVersion  string  `json:"goVersion"`
		Goroutines int     `json:"goroutines"`
		Models     int     `json:"models"`
		Kernels    struct {
			Active   string `json:"active"`
			Detected string `json:"detected"`
		} `json:"kernels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Models != 1 || h.Goroutines < 1 {
		t.Errorf("healthz = %+v", h)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("goVersion = %q", h.GoVersion)
	}
	if h.Kernels.Active == "" || h.Kernels.Detected == "" {
		t.Errorf("kernel tiers missing: %+v", h.Kernels)
	}
}

func TestPprofGated(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		s := testServer(t, Config{EnablePprof: enabled})
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		want := http.StatusNotFound
		if enabled {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("EnablePprof=%v: /debug/pprof/ = %s, want %d", enabled, resp.Status, want)
		}
	}
}
