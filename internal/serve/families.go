package serve

import (
	"maps"
	"slices"

	"burstsnn/internal/obs"
)

// This file is the one description of a model's telemetry. Every numeric
// or string field of Snapshot has one series row below saying which
// Prometheus family it feeds and how it folds across shards; the server's
// /metrics/prom page, the fleet's cross-shard merge and the fleet's page
// are loops over the table. Adding a metric is a Snapshot field, its
// increment site, and a row here — nothing in internal/fleet.

// kind is a family's exposition type.
type kind uint8

const (
	// counter families expose under a "model" label; a fleet exposes the
	// cross-shard merge.
	counter kind = iota
	// gauge families are live readings; a fleet exposes one sample per
	// shard under "model","shard" (its JSON counters still carry the merge).
	gauge
	// info families expose a string field as a label on a constant 1,
	// merged like counters; an empty string emits no sample.
	info
)

// mergeRule says how a field folds across shards.
type mergeRule uint8

const (
	// mergeSum adds: counters, and live gauges whose fleet total means
	// something (queue depth, pool width). The zero value, so the rows of a
	// multi-series counter family leave it out.
	mergeSum mergeRule = iota
	// mergeMax keeps the largest shard's reading, for gauges that do not add.
	mergeMax
	// mergeFirst keeps the first non-zero reading: identity fields, which
	// every shard registers the same way. Strings always merge this way.
	mergeFirst
	// mergeMean averages, weighted by the series' Weight field.
	mergeMean
)

// field points into a Snapshot: *int64, *int, *float64, *string or
// *map[string]int64 (one series per key, summed key-wise).
type field func(*Snapshot) any

// series is one Snapshot field's row.
type series struct {
	// Value is the family's Label value for this series ("" when the
	// family has one series, or takes the value from the field: info
	// strings, map keys).
	Value string
	Field field
	Merge mergeRule
	// Weight is the field a mean is weighted by.
	Weight field
	// Per divides the field into the exposed unit (1e3: ms → s); 0 is 1.
	Per float64
	// Is turns a string field into a 0/1 gauge: 1 while the field equals it.
	Is string
}

// family is one Prometheus family over one or more Snapshot fields.
type family struct {
	// Name follows the page prefix ("burstsnn_", "burstsnn_fleet_"). A
	// family with no name is JSON-only: merged, never exposed.
	Name string
	Help string
	Kind kind
	// Label names the second label of a multi-series family.
	Label string
	// Fair marks the families a server emits only with the weighted-fair
	// dispatcher on.
	Fair   bool
	Series []series
}

// one is the series list of a single-field family.
func one(f field, m mergeRule) []series { return []series{{Field: f, Merge: m}} }

// modelFamilies is the table, in page order.
var modelFamilies = []family{
	{Name: "requests_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.Requests }, mergeSum),
		Help: "Successfully served classifications."},
	{Name: "errors_total", Kind: counter, Label: "kind",
		Help: "Failed requests by failure site: admission (refused before simulating: validation, shutdown), shed (overload: full queue, projected-wait refusal, deadline expiry), simulation (failed during batch execution).",
		Series: []series{
			{Value: "admission", Field: func(s *Snapshot) any { return &s.AdmissionErrors }},
			{Value: "shed", Field: func(s *Snapshot) any { return &s.SheddedRequests }},
			{Value: "simulation", Field: func(s *Snapshot) any { return &s.SimulationErrors }},
		}},
	{Name: "early_exits_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.EarlyExits }, mergeSum),
		Help: "Requests that exited before their full step budget."},
	{Name: "batches_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.Batches }, mergeSum),
		Help: "Executed lockstep microbatches."},
	{Name: "batch_steps_saved_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.BatchStepsSaved }, mergeSum),
		Help: "Lockstep steps avoided by retiring early-exited lanes."},
	{Name: "deduped_requests_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.DedupedRequests }, mergeSum),
		Help: "Requests answered by duplicate fan-out instead of simulating."},
	{Name: "lockstep_fallbacks_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.LockstepFallbacks }, mergeSum),
		Help: "Batches routed lockstep that degraded to sequential because the replica could not batch."},
	{Name: "sched_dispatch_total", Kind: counter, Label: "mode",
		Help: "Multi-request batches by the scheduling plane's dispatch verdict.",
		Series: []series{
			{Value: "lockstep", Field: func(s *Snapshot) any { return &s.SchedLockstepBatches }},
			{Value: "sequential", Field: func(s *Snapshot) any { return &s.SchedSequentialBatches }},
		}},
	{Name: "sched_decisions_total", Kind: counter, Label: "reason", Series: one(func(s *Snapshot) any { return &s.SchedReasons }, mergeSum),
		Help: "Steering decisions by reason (see internal/serve sched.go)."},
	{Name: "form_waits_total", Kind: counter, Label: "outcome",
		Help: "Partial batches by how their wait for company ended: joined (the timed wait gained a request), fruitless (it gained nobody), skipped (the window was zero and no timer was armed).",
		Series: []series{
			{Value: "joined", Field: func(s *Snapshot) any { return &s.FormWaits.Joined }},
			{Value: "fruitless", Field: func(s *Snapshot) any { return &s.FormWaits.Fruitless }},
			{Value: "skipped", Field: func(s *Snapshot) any { return &s.FormWaits.Skipped }},
		}},
	{Name: "exit_prediction_hits_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.ExitHistoryHits }, mergeSum),
		Help: "Exit-history lookups that produced a verified exit-step prediction."},
	{Name: "exit_prediction_misses_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.ExitHistoryMisses }, mergeSum),
		Help: "Exit-history lookups with no usable prediction (unseen image or hash collision)."},
	{Name: "encoder_cache_hits_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.EncoderCacheHits }, mergeSum),
		Help: "Encoder quantization-cache hits."},
	{Name: "encoder_cache_misses_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.EncoderCacheMisses }, mergeSum),
		Help: "Encoder quantization-cache misses."},
	{Name: "response_cache_hits_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.ResponseCacheHits }, mergeSum),
		Help: "Cross-batch response-cache hits (replayed requests served without a queue slot or replica; in a fleet, shard affinity keeps the per-shard caches hot)."},
	{Name: "response_cache_misses_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.ResponseCacheMisses }, mergeSum),
		Help: "Cross-batch response-cache misses."},
	{Name: "degraded_requests_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.DegradedRequests }, mergeSum),
		Help: "Requests served under the degraded-mode tightened exit policy."},
	{Name: "model_evictions_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.Evictions }, mergeSum),
		Help: "Evict cycles: pool released, conversion and metrics archived."},
	{Name: "model_warms_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.Warms }, mergeSum),
		Help: "Warm cycles: model restored from the archive on demand."},

	{Name: "queue_depth", Kind: gauge, Series: one(func(s *Snapshot) any { return &s.QueueDepth }, mergeSum),
		Help: "Requests waiting in the model's admission queue right now."},
	// Windows do not add: the merge reports the widest shard's.
	{Name: "form_window_seconds", Kind: gauge, Series: []series{{Field: func(s *Snapshot) any { return &s.FormWindowMs }, Merge: mergeMax, Per: 1e3}},
		Help: "Live batch-forming window: how long the next partial batch waits for company, from the configured max delay down to zero for traffic that waiting does not gather."},
	{Name: "pool_in_flight", Kind: gauge, Series: one(func(s *Snapshot) any { return &s.PoolInFlight }, mergeSum),
		Help: "Replicas checked out right now."},
	{Name: "pool_size", Kind: gauge, Series: one(func(s *Snapshot) any { return &s.PoolSize }, mergeSum),
		Help: "Replica pool bound (moves under fleet autoscaling)."},
	{Name: "queue_pressure", Kind: gauge, Series: one(func(s *Snapshot) any { return &s.QueuePressure }, mergeMax),
		Help: "EWMA'd admission-queue fill fraction. A server reports the degrade controller's signal (0 with no controller); a fleet reports, per shard, the always-on signal its autoscaler steers by."},
	{Name: "degraded_mode", Kind: gauge, Series: []series{{Field: func(s *Snapshot) any { return &s.DegradeMode }, Is: "degraded"}},
		Help: "1 while the model serves under the degraded-mode tightened policy, else 0."},
	{Name: "model_resident", Kind: gauge, Series: []series{{Field: func(s *Snapshot) any { return &s.State }, Is: StateResident}},
		Help: "1 while the model is resident with a live pool, 0 while evicted."},

	{Name: "fair_weight", Kind: gauge, Fair: true, Series: one(func(s *Snapshot) any { return &s.FairWeight }, mergeFirst),
		Help: "Configured fair-share weight."},
	{Name: "fair_share", Kind: gauge, Fair: true, Series: one(func(s *Snapshot) any { return &s.FairShare }, mergeFirst),
		Help: "Normalized fair share of the execution-slot capacity (weight over sum of weights)."},
	{Name: "fair_waiting", Kind: gauge, Fair: true, Series: one(func(s *Snapshot) any { return &s.FairWaiting }, mergeSum),
		Help: "Batches waiting for a fair execution slot right now (persistently high with few grants = starvation)."},
	{Name: "fair_grants_total", Kind: counter, Fair: true, Series: one(func(s *Snapshot) any { return &s.FairGrants }, mergeSum),
		Help: "Execution slots granted by the fair dispatcher."},

	{Name: "batch_kernel_info", Kind: info, Label: "kernel", Series: one(func(s *Snapshot) any { return &s.BatchKernel }, mergeFirst),
		Help: "Resolved lockstep compute plane per model; value is always 1."},
	{Name: "scheduler_info", Kind: info, Label: "scheduler", Series: one(func(s *Snapshot) any { return &s.Scheduler }, mergeFirst),
		Help: "Resolved batch-steering policy per model; value is always 1."},

	// JSON-only means: the paper's two serving quantities and the mean
	// lanes per batch, each weighted by the count it averages over.
	{Series: []series{
		{Field: func(s *Snapshot) any { return &s.MeanSteps }, Merge: mergeMean, Weight: func(s *Snapshot) any { return &s.Requests }},
		{Field: func(s *Snapshot) any { return &s.MeanSpikes }, Merge: mergeMean, Weight: func(s *Snapshot) any { return &s.Requests }},
		{Field: func(s *Snapshot) any { return &s.MeanBatchOccupancy }, Merge: mergeMean, Weight: func(s *Snapshot) any { return &s.Batches }},
	}},
}

// ModelHists are one model's raw histogram buckets: what a shard ships to
// a fleet front and what both pages expose, because buckets merge
// (obs.HistSnapshot.Merge) where digested percentiles do not.
type ModelHists struct {
	// Stages is keyed by obs.Stage name, in seconds.
	Stages map[string]obs.HistSnapshot `json:"stages"`
	// Occupancy is in lanes per executed lockstep batch.
	Occupancy obs.HistSnapshot `json:"occupancy"`
	// ExitPredictionError is |predicted − actual| exit steps.
	ExitPredictionError obs.HistSnapshot `json:"exitPredictionError"`
}

// histFamilies describes the histogram families once, like modelFamilies
// does the scalar ones; get maps a family's Label values to its
// histograms ("" for a family of one).
var histFamilies = []struct {
	Name, Help, Label string
	get               func(*ModelHists) map[string]obs.HistSnapshot
}{
	{Name: "stage_duration_seconds", Label: "stage", get: func(h *ModelHists) map[string]obs.HistSnapshot { return h.Stages },
		Help: "Per-request stage spans (see internal/obs for the taxonomy); a fleet's are merged across shards, bucket-exact because every shard shares the layout."},
	{Name: "batch_occupancy", get: func(h *ModelHists) map[string]obs.HistSnapshot { return map[string]obs.HistSnapshot{"": h.Occupancy} },
		Help: "Lane occupancy of executed lockstep microbatches."},
	{Name: "exit_prediction_error_steps", get: func(h *ModelHists) map[string]obs.HistSnapshot {
		return map[string]obs.HistSnapshot{"": h.ExitPredictionError}
	},
		Help: "Absolute predicted-vs-actual exit-step error over predicted lanes (le=0 counts exact predictions)."},
}

// Merge folds another shard's buckets in. Layouts are shared by
// construction (every shard builds its histograms from the same obs
// constructors), so the per-histogram merges cannot fail.
func (h *ModelHists) Merge(o ModelHists) {
	if h.Stages == nil {
		h.Stages = make(map[string]obs.HistSnapshot, len(o.Stages))
	}
	for name, hs := range o.Stages {
		acc := h.Stages[name]
		_ = acc.Merge(hs)
		h.Stages[name] = acc
	}
	_ = h.Occupancy.Merge(o.Occupancy)
	_ = h.ExitPredictionError.Merge(o.ExitPredictionError)
}

// Derive fills everything in a Snapshot that is computed rather than
// counted: the error total, the early-exit rate, and the digests and
// latency percentiles of h. Metrics.Snapshot ends with it, and so does a
// cross-shard merge (MergeSnapshot per shard, then Derive over the merged
// buckets), which is why a fleet's summary reads like one big server's.
func (s *Snapshot) Derive(h ModelHists) {
	s.Errors = s.AdmissionErrors + s.SheddedRequests + s.SimulationErrors
	s.EarlyExitRate = 0
	if s.Requests > 0 {
		s.EarlyExitRate = float64(s.EarlyExits) / float64(s.Requests)
	}
	s.Stages = make(map[string]StageStats, len(h.Stages))
	for name, hs := range h.Stages {
		s.Stages[name] = digest(hs, 1e3) // seconds → ms
	}
	total := s.Stages[obs.StageTotal.String()]
	s.P50Ms, s.P90Ms, s.P99Ms = total.P50, total.P90, total.P99
	s.Occupancy = digest(h.Occupancy, 1)                     // lanes
	s.ExitPredictionError = digest(h.ExitPredictionError, 1) // steps
}

// MergeSnapshot folds src, another shard's view of the same model, into
// dst by each field's declared rule. The computed fields are left to
// Derive.
func MergeSnapshot(dst *Snapshot, src Snapshot) {
	prev := *dst // Mean weights are read before any sum lands
	for _, f := range modelFamilies {
		for _, sr := range f.Series {
			sr.merge(dst, &prev, &src)
		}
	}
}

func (sr series) merge(dst, prev, src *Snapshot) {
	switch d := sr.Field(dst).(type) {
	case *int64:
		*d = fold(sr.Merge, *d, *sr.Field(src).(*int64))
	case *int:
		*d = fold(sr.Merge, *d, *sr.Field(src).(*int))
	case *float64:
		v := *sr.Field(src).(*float64)
		if sr.Merge != mergeMean {
			*d = fold(sr.Merge, *d, v)
		} else if wa, wb := sample(sr.Weight(prev)), sample(sr.Weight(src)); wa+wb > 0 {
			*d = (*d*wa + v*wb) / (wa + wb)
		}
	case *string:
		*d = fold(mergeFirst, *d, *sr.Field(src).(*string))
	case *map[string]int64:
		for key, n := range *sr.Field(src).(*map[string]int64) {
			if *d == nil {
				*d = map[string]int64{}
			}
			(*d)[key] += n
		}
	}
}

func fold[T int | int64 | float64 | string](rule mergeRule, a, b T) T {
	var zero T
	switch {
	case rule == mergeSum:
		return a + b
	case rule == mergeMax:
		return max(a, b)
	case a == zero: // mergeFirst
		return b
	}
	return a
}

// sample reads a numeric field pointer as an exposition value.
func sample(p any) float64 {
	switch v := p.(type) {
	case *int64:
		return float64(*v)
	case *int:
		return float64(*v)
	case *float64:
		return *v
	}
	return 0
}

// PromRow is one labelled view of a model on an exposition page.
type PromRow struct {
	Labels []obs.Label
	Snap   *Snapshot
	Hists  *ModelHists
}

// with returns the row's labels plus one more (none when name is empty).
func (r PromRow) with(name, value string) []obs.Label {
	if name == "" {
		return r.Labels
	}
	return append(r.Labels[:len(r.Labels):len(r.Labels)], obs.Label{Name: name, Value: value})
}

// WriteModelFamilies emits the table: every named family as prefix+Name,
// in table order, then the histogram families. Counter, info and
// histogram families take one sample set per row of merged, gauge
// families one per row of live — the same rows on a server; on a fleet,
// the cross-shard merge under "model" and each shard under
// "model","shard". Fair families are skipped unless fair.
func WriteModelFamilies(pw *obs.PromWriter, prefix string, fair bool, merged, live []PromRow) {
	for _, f := range modelFamilies {
		if f.Name == "" || f.Fair && !fair {
			continue
		}
		name, rows, typ := prefix+f.Name, merged, "counter"
		if f.Kind != counter {
			typ = "gauge"
		}
		if f.Kind == gauge {
			rows = live
		}
		pw.Header(name, f.Help, typ)
		for _, r := range rows {
			for _, sr := range f.Series {
				switch p := sr.Field(r.Snap).(type) {
				case *map[string]int64:
					for _, key := range slices.Sorted(maps.Keys(*p)) {
						pw.Metric(name, r.with(f.Label, key), float64((*p)[key]))
					}
				case *string:
					if f.Kind != info {
						on := 0.0
						if *p == sr.Is {
							on = 1
						}
						pw.Metric(name, r.with(f.Label, sr.Value), on)
					} else if *p != "" {
						pw.Metric(name, r.with(f.Label, *p), 1)
					}
				default:
					pw.Metric(name, r.with(f.Label, sr.Value), sample(p)/max(sr.Per, 1))
				}
			}
		}
	}
	for _, hf := range histFamilies {
		pw.Header(prefix+hf.Name, hf.Help, "histogram")
		for _, r := range merged {
			hists := hf.get(r.Hists)
			for _, value := range slices.Sorted(maps.Keys(hists)) {
				pw.Histogram(prefix+hf.Name, r.with(hf.Label, value), hists[value])
			}
		}
	}
}
