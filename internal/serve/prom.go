package serve

import (
	"io"
	"net/http"
	"runtime"
	"time"

	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
)

// handleMetricsProm serves GET /metrics/prom (and GET /metrics?format=prom):
// the same telemetry as the JSON page in Prometheus text exposition format
// 0.0.4, with the stage-duration histograms emitted as a native histogram
// family rather than pre-digested percentiles.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeProm(w)
}

// writeProm emits the full exposition page: the server-wide families
// here, then the per-model table (families.go). Families are emitted in a
// fixed order with one # HELP/# TYPE pair each and model-labelled samples
// beneath, per the format (the golden test runs this page through
// obs.ValidatePromText and pins its shape).
func (s *Server) writeProm(w io.Writer) error {
	pw := obs.NewPromWriter(w)

	pw.Header("burstsnn_uptime_seconds", "Server uptime.", "gauge")
	pw.Metric("burstsnn_uptime_seconds", nil, time.Since(s.start).Seconds())

	path, version := buildInfo()
	pw.Header("burstsnn_build_info", "Build metadata; value is always 1.", "gauge")
	pw.Metric("burstsnn_build_info", []obs.Label{
		{Name: "module", Value: path},
		{Name: "version", Value: version},
		{Name: "goversion", Value: runtime.Version()},
	}, 1)

	pw.Header("burstsnn_kernel_dispatch_info",
		"Kernel dispatch tier: active is the tier running now (after KERNELS_LEVEL/ForceLevel overrides), detected is the CPUID probe result; value is always 1.",
		"gauge")
	pw.Metric("burstsnn_kernel_dispatch_info", []obs.Label{
		{Name: "active", Value: kernels.ActiveLevel()},
		{Name: "detected", Value: kernels.DetectedLevel()},
	}, 1)

	resident, evicted, warming := s.lifecycleCounts()
	pw.Header("burstsnn_resident_models", "Models resident with a live pool right now.", "gauge")
	pw.Metric("burstsnn_resident_models", nil, float64(resident))
	pw.Header("burstsnn_evicted_models", "Models evicted to the conversion archive right now.", "gauge")
	pw.Metric("burstsnn_evicted_models", nil, float64(evicted))
	pw.Header("burstsnn_warming_models", "Models mid-restore from the archive right now.", "gauge")
	pw.Metric("burstsnn_warming_models", nil, float64(warming))

	// Stable model order so consecutive scrapes diff cleanly; statRows is
	// already name-sorted and includes evicted models (retained counters,
	// zero live gauges). The per-model families are the table's.
	statrows := s.statRows()
	rows := make([]PromRow, len(statrows))
	for i, row := range statrows {
		snap, hists := s.fillSnapshot(row), row.met.Hists()
		rows[i] = PromRow{Labels: []obs.Label{{Name: "model", Value: row.name}}, Snap: &snap, Hists: &hists}
	}
	WriteModelFamilies(pw, "burstsnn_", s.fair != nil, rows, rows)
	return pw.Flush()
}
