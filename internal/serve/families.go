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

// field points into a Snapshot: *int64, *int, *float64 or *string.
type field func(*Snapshot) any

// series is one Snapshot field's row.
type series struct {
	// Value is the family's Label value for this series ("" when the
	// family has one series).
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
	{Name: "deduped_requests_total", Kind: counter, Series: one(func(s *Snapshot) any { return &s.DedupedRequests }, mergeSum),
		Help: "Requests answered by duplicate fan-out instead of simulating."},
	{Name: "form_waits_total", Kind: counter, Label: "outcome",
		Help: "Partial batches by how their wait for company ended: joined (the timed wait gained a request), fruitless (it gained nobody), skipped (the window was zero and no timer was armed).",
		Series: []series{
			{Value: "joined", Field: func(s *Snapshot) any { return &s.FormWaits.Joined }},
			{Value: "fruitless", Field: func(s *Snapshot) any { return &s.FormWaits.Fruitless }},
			{Value: "skipped", Field: func(s *Snapshot) any { return &s.FormWaits.Skipped }},
		}},
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
		Help: "Replica pool bound (moves under autoscaling)."},
	{Name: "queue_pressure", Kind: gauge, Series: one(func(s *Snapshot) any { return &s.QueuePressure }, mergeMax),
		Help: "EWMA'd admission-queue fill fraction: the signal the server's degrade controller and autoscaler steer by."},
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

	// JSON-only means: the paper's two serving quantities, each weighted
	// by the request count.
	{Series: []series{
		{Field: func(s *Snapshot) any { return &s.MeanSteps }, Merge: mergeMean, Weight: func(s *Snapshot) any { return &s.Requests }},
		{Field: func(s *Snapshot) any { return &s.MeanSpikes }, Merge: mergeMean, Weight: func(s *Snapshot) any { return &s.Requests }},
	}},
}

// ModelHists are one model's raw histogram buckets: what a shard ships to
// a fleet front and what both pages expose, because buckets merge
// (obs.HistSnapshot.Merge) where digested percentiles do not.
type ModelHists struct {
	// Stages is keyed by obs.Stage name, in seconds.
	Stages map[string]obs.HistSnapshot `json:"stages"`
}

// stageFamily is the one histogram family, exposed from ModelHists.Stages
// under a "stage" label.
const (
	stageFamily     = "stage_duration_seconds"
	stageFamilyHelp = "Per-request stage spans (see internal/obs for the taxonomy); a fleet's are merged across shards, bucket-exact because every shard shares the layout."
)

// Merge folds another shard's buckets in. Layouts are shared by
// construction (every shard builds its histograms from the same obs
// constructor), so the per-histogram merges cannot fail.
func (h *ModelHists) Merge(o ModelHists) {
	if h.Stages == nil {
		h.Stages = make(map[string]obs.HistSnapshot, len(o.Stages))
	}
	for name, hs := range o.Stages {
		acc := h.Stages[name]
		_ = acc.Merge(hs)
		h.Stages[name] = acc
	}
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
		s.Stages[name] = digest(hs)
	}
	total := s.Stages[obs.StageTotal.String()]
	s.P50Ms, s.P90Ms, s.P99Ms = total.P50, total.P90, total.P99
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
// in table order, then the stage histogram family. Counter and histogram
// families take one sample set per row of merged, gauge families one per
// row of live — the same rows on a server; on a fleet, the cross-shard
// merge under "model" and each shard under "model","shard". Fair
// families are skipped unless fair.
func WriteModelFamilies(pw *obs.PromWriter, prefix string, fair bool, merged, live []PromRow) {
	for _, f := range modelFamilies {
		if f.Name == "" || f.Fair && !fair {
			continue
		}
		name, rows, typ := prefix+f.Name, merged, "counter"
		if f.Kind == gauge {
			rows, typ = live, "gauge"
		}
		pw.Header(name, f.Help, typ)
		for _, r := range rows {
			for _, sr := range f.Series {
				v := 0.0
				if p, ok := sr.Field(r.Snap).(*string); ok {
					if *p == sr.Is {
						v = 1
					}
				} else {
					v = sample(sr.Field(r.Snap)) / max(sr.Per, 1)
				}
				pw.Metric(name, r.with(f.Label, sr.Value), v)
			}
		}
	}
	name := prefix + stageFamily
	pw.Header(name, stageFamilyHelp, "histogram")
	for _, r := range merged {
		for _, stage := range slices.Sorted(maps.Keys(r.Hists.Stages)) {
			pw.Histogram(name, r.with("stage", stage), r.Hists.Stages[stage])
		}
	}
}
