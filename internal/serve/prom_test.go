package serve

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/prom_families.golden from the live page")

// TestPromExposition is the golden gate for the Prometheus surface: it
// drives real traffic, scrapes both routes, runs every line through the
// strict validator, and checks the families a dashboard would sit on.
func TestPromExposition(t *testing.T) {
	s := testServer(t, Config{})
	classifySome(t, s, 5)
	// One admission error so the split counter has signal.
	if _, err := s.Classify(t.Context(), ClassifyRequest{Model: "digits", Image: []float64{1}}); err == nil {
		t.Fatal("short image accepted")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body string
	for _, path := range []string{"/metrics/prom", "/metrics?format=prom"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		rawBytes, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		raw := string(rawBytes)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
		samples, err := obs.ValidatePromText(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("%s failed validation: %v\n%s", path, err, raw)
		}
		if samples == 0 {
			t.Fatalf("%s: no samples", path)
		}
		body = raw
	}

	for _, want := range []string{
		`burstsnn_requests_total{model="digits"} 5`,
		`burstsnn_errors_total{model="digits",kind="admission"} 1`,
		`burstsnn_errors_total{model="digits",kind="shed"} 0`,
		`burstsnn_errors_total{model="digits",kind="simulation"} 0`,
		`burstsnn_response_cache_hits_total{model="digits"} 0`,
		`burstsnn_response_cache_misses_total{model="digits"} 5`,
		`burstsnn_degraded_requests_total{model="digits"} 0`,
		`burstsnn_queue_pressure{model="digits"} 0`,
		`burstsnn_degraded_mode{model="digits"} 0`,
		// Five lone requests: four fruitless waits take the forming
		// window from the 2 ms MaxDelay to zero, and the fifth skips its
		// wait.
		`burstsnn_form_waits_total{model="digits",outcome="joined"} 0`,
		`burstsnn_form_waits_total{model="digits",outcome="fruitless"} 4`,
		`burstsnn_form_waits_total{model="digits",outcome="skipped"} 1`,
		`burstsnn_form_window_seconds{model="digits"} 0` + "\n",
		`burstsnn_stage_duration_seconds_count{model="digits",stage="simulate"} 5`,
		`burstsnn_pool_size{model="digits"} 4`,
		`burstsnn_queue_depth{model="digits"} 0`,
		`burstsnn_kernel_dispatch_info{active=`,
		`burstsnn_build_info{module=`,
		"# TYPE burstsnn_stage_duration_seconds histogram",
		"# TYPE burstsnn_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The page's shape — family names, types, label names, order — is what
	// dashboards sit on; it changes only with `go test -update`.
	const golden = "testdata/prom_families.golden"
	shape := strings.Join(obs.PromFamilies(body), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(shape), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if shape != string(want) {
		t.Errorf("family shape differs from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, shape, want)
	}

	// Histogram buckets must be cumulative (monotonically non-decreasing)
	// and end at the +Inf total.
	var last uint64
	var bucketLines int
	prefix := `burstsnn_stage_duration_seconds_bucket{model="digits",stage="total",`
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		bucketLines++
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("non-cumulative bucket %q after %d", line, last)
		}
		last = v
	}
	if bucketLines != 54 { // 53 finite bounds + the +Inf bucket
		t.Errorf("total-stage bucket lines = %d, want 54", bucketLines)
	}
	if last != 5 {
		t.Errorf("+Inf bucket = %d, want 5 requests", last)
	}
}

// TestKernelDispatchReportsLevel pins the vocabulary of the dispatch
// tier on the prom page and /healthz: active is a level name, like
// detected beside it, so a forced tier reads back as itself ("purego",
// not a kernel-implementation name such as "f32"). purego runs on every
// build, so the test never skips.
func TestKernelDispatchReportsLevel(t *testing.T) {
	if err := kernels.ForceLevel(kernels.LevelPurego); err != nil {
		t.Fatal(err)
	}
	defer kernels.ForceLevel("")
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := `burstsnn_kernel_dispatch_info{active="purego",detected="` + kernels.DetectedLevel() + `"} 1`
	if prom := string(get("/metrics/prom")); !strings.Contains(prom, want) {
		t.Errorf("/metrics/prom lacks %q", want)
	}
	var page struct {
		Kernels map[string]string `json:"kernels"`
	}
	if err := json.Unmarshal(get("/healthz"), &page); err != nil {
		t.Fatal(err)
	}
	if got := page.Kernels["active"]; got != kernels.LevelPurego {
		t.Errorf(`/healthz kernels.active = %q, want "purego"`, got)
	}
	if got := page.Kernels["detected"]; got != kernels.DetectedLevel() {
		t.Errorf("/healthz kernels.detected = %q, want %q", got, kernels.DetectedLevel())
	}
}

// TestMetricsReportsDispatchTier pins the observability half of the
// dispatch ladder: the Prometheus page must name the tier the kernels
// actually run on — for every forceable tier, kernel_dispatch_info's
// active label is that tier, next to the CPUID probe's result.
func TestMetricsReportsDispatchTier(t *testing.T) {
	defer kernels.ForceLevel("")
	s := New(Config{})
	defer s.Shutdown(context.Background())
	for _, lv := range kernels.Available() {
		if err := kernels.ForceLevel(lv); err != nil {
			t.Fatal(err)
		}
		var page strings.Builder
		if err := s.writeProm(&page); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`burstsnn_kernel_dispatch_info{active=%q,detected=%q} 1`, lv, kernels.DetectedLevel())
		if !strings.Contains(page.String(), want) {
			t.Fatalf("tier %s: prom page lacks %s", lv, want)
		}
	}
}
