package serve

import (
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"

	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
)

// handleMetricsProm serves GET /metrics/prom (and GET /metrics?format=prom):
// the same telemetry as the JSON page in Prometheus text exposition format
// 0.0.4, with the stage-duration and batch-occupancy histograms emitted as
// native histogram families rather than pre-digested percentiles.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeProm(w)
}

// writeProm emits the full exposition page. Families are emitted in a
// fixed order with one # HELP/# TYPE pair each and model-labelled samples
// beneath, per the format (the golden test runs this page through
// obs.ValidatePromText).
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
		{Name: "active", Value: kernels.Kind()},
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
	// zero live gauges).
	type modelRow struct {
		name string
		met  *Metrics
		snap Snapshot
	}
	statrows := s.statRows()
	rows := make([]modelRow, 0, len(statrows))
	for _, row := range statrows {
		rows = append(rows, modelRow{row.name, row.met, s.fillSnapshot(row)})
	}

	counter := func(name, help string, get func(Snapshot) float64) {
		pw.Header(name, help, "counter")
		for _, r := range rows {
			pw.Metric(name, []obs.Label{{Name: "model", Value: r.name}}, get(r.snap))
		}
	}
	gauge := func(name, help string, get func(Snapshot) float64) {
		pw.Header(name, help, "gauge")
		for _, r := range rows {
			pw.Metric(name, []obs.Label{{Name: "model", Value: r.name}}, get(r.snap))
		}
	}

	counter("burstsnn_requests_total", "Successfully served classifications.",
		func(s Snapshot) float64 { return float64(s.Requests) })

	pw.Header("burstsnn_errors_total",
		"Failed requests by failure site: admission (refused before simulating: validation, shutdown), shed (overload: full queue, projected-wait refusal, deadline expiry), simulation (failed during batch execution).",
		"counter")
	for _, r := range rows {
		pw.Metric("burstsnn_errors_total", []obs.Label{
			{Name: "model", Value: r.name}, {Name: "kind", Value: "admission"},
		}, float64(r.snap.AdmissionErrors))
		pw.Metric("burstsnn_errors_total", []obs.Label{
			{Name: "model", Value: r.name}, {Name: "kind", Value: "shed"},
		}, float64(r.snap.SheddedRequests))
		pw.Metric("burstsnn_errors_total", []obs.Label{
			{Name: "model", Value: r.name}, {Name: "kind", Value: "simulation"},
		}, float64(r.snap.SimulationErrors))
	}

	counter("burstsnn_early_exits_total", "Requests that exited before their full step budget.",
		func(s Snapshot) float64 { return float64(s.EarlyExits) })
	counter("burstsnn_batches_total", "Executed lockstep microbatches.",
		func(s Snapshot) float64 { return float64(s.Batches) })
	counter("burstsnn_batch_steps_saved_total",
		"Lockstep steps avoided by retiring early-exited lanes.",
		func(s Snapshot) float64 { return float64(s.BatchStepsSaved) })
	counter("burstsnn_deduped_requests_total",
		"Requests answered by duplicate fan-out instead of simulating.",
		func(s Snapshot) float64 { return float64(s.DedupedRequests) })
	counter("burstsnn_lockstep_fallbacks_total",
		"Batches routed lockstep that degraded to sequential because the replica could not batch.",
		func(s Snapshot) float64 { return float64(s.LockstepFallbacks) })

	pw.Header("burstsnn_sched_dispatch_total",
		"Multi-request batches by the scheduling plane's dispatch verdict.",
		"counter")
	for _, r := range rows {
		pw.Metric("burstsnn_sched_dispatch_total", []obs.Label{
			{Name: "model", Value: r.name}, {Name: "mode", Value: "lockstep"},
		}, float64(r.snap.SchedLockstepBatches))
		pw.Metric("burstsnn_sched_dispatch_total", []obs.Label{
			{Name: "model", Value: r.name}, {Name: "mode", Value: "sequential"},
		}, float64(r.snap.SchedSequentialBatches))
	}

	pw.Header("burstsnn_sched_decisions_total",
		"Steering decisions by reason (see internal/serve sched.go).",
		"counter")
	for _, r := range rows {
		reasons := make([]string, 0, len(r.snap.SchedReasons))
		for reason := range r.snap.SchedReasons {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			pw.Metric("burstsnn_sched_decisions_total", []obs.Label{
				{Name: "model", Value: r.name}, {Name: "reason", Value: reason},
			}, float64(r.snap.SchedReasons[reason]))
		}
	}

	pw.Header("burstsnn_form_waits_total",
		"Partial batches by how their timed wait for company ended: joined (it gained a request), fruitless (it gained nobody).",
		"counter")
	for _, r := range rows {
		r.snap.FormWaits.Each(func(outcome string, n int64) {
			pw.Metric("burstsnn_form_waits_total", []obs.Label{
				{Name: "model", Value: r.name}, {Name: "outcome", Value: outcome},
			}, float64(n))
		})
	}

	counter("burstsnn_exit_prediction_hits_total",
		"Exit-history lookups that produced a verified exit-step prediction.",
		func(s Snapshot) float64 { return float64(s.ExitHistoryHits) })
	counter("burstsnn_exit_prediction_misses_total",
		"Exit-history lookups with no usable prediction (unseen image or hash collision).",
		func(s Snapshot) float64 { return float64(s.ExitHistoryMisses) })
	counter("burstsnn_encoder_cache_hits_total", "Encoder quantization-cache hits.",
		func(s Snapshot) float64 { return float64(s.EncoderCacheHits) })
	counter("burstsnn_encoder_cache_misses_total", "Encoder quantization-cache misses.",
		func(s Snapshot) float64 { return float64(s.EncoderCacheMisses) })
	counter("burstsnn_response_cache_hits_total",
		"Cross-batch response-cache hits (replayed requests served without a queue slot or replica).",
		func(s Snapshot) float64 { return float64(s.ResponseCacheHits) })
	counter("burstsnn_response_cache_misses_total", "Cross-batch response-cache misses.",
		func(s Snapshot) float64 { return float64(s.ResponseCacheMisses) })
	counter("burstsnn_degraded_requests_total",
		"Requests served under the degraded-mode tightened exit policy.",
		func(s Snapshot) float64 { return float64(s.DegradedRequests) })
	counter("burstsnn_model_evictions_total",
		"Evict cycles: pool released, conversion and metrics archived.",
		func(s Snapshot) float64 { return float64(s.Evictions) })
	counter("burstsnn_model_warms_total",
		"Warm cycles: model restored from the archive on demand.",
		func(s Snapshot) float64 { return float64(s.Warms) })

	gauge("burstsnn_queue_depth", "Requests waiting in the model's admission queue right now.",
		func(s Snapshot) float64 { return float64(s.QueueDepth) })
	gauge("burstsnn_form_window_seconds",
		"Live batch-forming window: how long the next partial batch waits for company, between a sixteenth of the configured max delay and all of it.",
		func(s Snapshot) float64 { return s.FormWindowMs / 1e3 })
	gauge("burstsnn_pool_in_flight", "Replicas checked out right now.",
		func(s Snapshot) float64 { return float64(s.PoolInFlight) })
	gauge("burstsnn_pool_size", "Replica pool bound.",
		func(s Snapshot) float64 { return float64(s.PoolSize) })
	gauge("burstsnn_queue_pressure",
		"EWMA'd admission-queue fill fraction driving degraded mode (0 with no degrade controller).",
		func(s Snapshot) float64 { return s.QueuePressure })
	gauge("burstsnn_degraded_mode",
		"1 while the model serves under the degraded-mode tightened policy, else 0.",
		func(s Snapshot) float64 {
			if s.DegradeMode == "degraded" {
				return 1
			}
			return 0
		})
	gauge("burstsnn_model_resident",
		"1 while the model is resident with a live pool, 0 while evicted.",
		func(s Snapshot) float64 {
			if s.State == StateResident {
				return 1
			}
			return 0
		})

	if s.fair != nil {
		gauge("burstsnn_fair_weight", "Configured fair-share weight.",
			func(s Snapshot) float64 { return s.FairWeight })
		gauge("burstsnn_fair_share",
			"Normalized fair share of the execution-slot capacity (weight over sum of weights).",
			func(s Snapshot) float64 { return s.FairShare })
		gauge("burstsnn_fair_waiting",
			"Batches waiting for a fair execution slot right now (persistently high with few grants = starvation).",
			func(s Snapshot) float64 { return float64(s.FairWaiting) })
		counter("burstsnn_fair_grants_total", "Execution slots granted by the fair dispatcher.",
			func(s Snapshot) float64 { return float64(s.FairGrants) })
	}

	pw.Header("burstsnn_batch_kernel_info",
		"Resolved lockstep compute plane per model; value is always 1.", "gauge")
	for _, r := range rows {
		if k := r.snap.BatchKernel; k != "" {
			pw.Metric("burstsnn_batch_kernel_info", []obs.Label{
				{Name: "model", Value: r.name}, {Name: "kernel", Value: k},
			}, 1)
		}
	}

	pw.Header("burstsnn_scheduler_info",
		"Resolved batch-steering policy per model; value is always 1.", "gauge")
	for _, r := range rows {
		if sc := r.snap.Scheduler; sc != "" {
			pw.Metric("burstsnn_scheduler_info", []obs.Label{
				{Name: "model", Value: r.name}, {Name: "scheduler", Value: sc},
			}, 1)
		}
	}

	pw.Header("burstsnn_stage_duration_seconds",
		"Per-request stage spans (see internal/obs for the taxonomy).", "histogram")
	for _, r := range rows {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			pw.Histogram("burstsnn_stage_duration_seconds", []obs.Label{
				{Name: "model", Value: r.name}, {Name: "stage", Value: st.String()},
			}, r.met.StageHistogram(st).Snapshot())
		}
	}

	pw.Header("burstsnn_batch_occupancy",
		"Lane occupancy of executed lockstep microbatches.", "histogram")
	for _, r := range rows {
		pw.Histogram("burstsnn_batch_occupancy",
			[]obs.Label{{Name: "model", Value: r.name}},
			r.met.OccupancyHistogram().Snapshot())
	}

	pw.Header("burstsnn_exit_prediction_error_steps",
		"Absolute predicted-vs-actual exit-step error over predicted lanes (le=0 counts exact predictions).",
		"histogram")
	for _, r := range rows {
		pw.Histogram("burstsnn_exit_prediction_error_steps",
			[]obs.Label{{Name: "model", Value: r.name}},
			r.met.ExitPredictionHistogram().Snapshot())
	}

	return pw.Flush()
}
