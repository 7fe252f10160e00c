package fleet

import (
	"io"
	"sort"
	"strconv"
	"time"

	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// ShardCounters is one shard's routing view in the fleet snapshot.
type ShardCounters struct {
	Shard      int   `json:"shard"`
	Live       bool  `json:"live"`
	Dispatched int64 `json:"dispatched"`
	Fallbacks  int64 `json:"fallbacks"`
	Sheds      int64 `json:"sheds"`
	DeadSkips  int64 `json:"deadSkips"`
	Respawns   int64 `json:"respawns"`
}

// FleetModelStats is one model's fleet-wide view: additive counters
// summed across shards, and stage/occupancy statistics recomputed from
// the MERGED raw histogram buckets (obs.HistSnapshot.Merge) — the same
// estimates one big histogram fed every shard's observations would
// report, which digested per-shard percentiles cannot reproduce.
type FleetModelStats struct {
	Counters  serve.Snapshot              `json:"counters"`
	Stages    map[string]serve.StageStats `json:"stages"`
	Occupancy serve.StageStats            `json:"batchOccupancy"`
	PerShard  map[string]ShardModelGauges `json:"perShard"`
}

// ShardModelGauges are the per-(shard, model) live gauges the fleet
// exposes under a shard label.
type ShardModelGauges struct {
	QueueDepth    int     `json:"queueDepth"`
	QueuePressure float64 `json:"queuePressure"`
	FormWindowMs  float64 `json:"formWindowMs"`
	PoolSize      int     `json:"poolSize"`
	PoolInFlight  int     `json:"poolInFlight"`
	RetryAfterSec float64 `json:"retryAfterSec"`
	CacheHits     int64   `json:"responseCacheHits"`
}

// FleetSnapshot is the front tier's /metrics JSON.
type FleetSnapshot struct {
	UptimeSec  float64                    `json:"uptimeSec"`
	Shards     int                        `json:"shards"`
	LiveShards int                        `json:"liveShards"`
	PerShard   []ShardCounters            `json:"perShard"`
	Models     map[string]FleetModelStats `json:"models"`
}

// shardScrape is one shard's raw scrape: routing counters plus the
// worker's ShardStats (nil while the shard is down or the scrape fails).
type shardScrape struct {
	counters ShardCounters
	stats    *serve.ShardStats
}

// scrape collects every shard's counters and (for live shards) telemetry.
func (f *Fleet) scrape() []shardScrape {
	out := make([]shardScrape, f.cfg.Shards)
	for s := 0; s < f.cfg.Shards; s++ {
		c := &f.counters[s]
		w := f.Worker(s)
		out[s] = shardScrape{counters: ShardCounters{
			Shard:      s,
			Live:       w != nil,
			Dispatched: c.dispatched.Load(),
			Fallbacks:  c.fallbacks.Load(),
			Sheds:      c.sheds.Load(),
			DeadSkips:  c.deadSkips.Load(),
			Respawns:   c.respawns.Load(),
		}}
		if w == nil {
			continue
		}
		if st, err := w.Stats(); err == nil {
			out[s].stats = &st
		} else {
			out[s].counters.Live = false
		}
	}
	return out
}

// Snapshot assembles the fleet-wide metrics view.
func (f *Fleet) Snapshot() FleetSnapshot {
	return buildSnapshot(time.Since(f.start).Seconds(), f.scrape())
}

func buildSnapshot(uptime float64, scrapes []shardScrape) FleetSnapshot {
	snap := FleetSnapshot{
		UptimeSec: uptime,
		Shards:    len(scrapes),
		PerShard:  make([]ShardCounters, 0, len(scrapes)),
		Models:    map[string]FleetModelStats{},
	}
	// Raw merged buckets per (model, stage) and per-model occupancy.
	type merged struct {
		stages    map[string]*obs.HistSnapshot
		occupancy obs.HistSnapshot
	}
	merges := map[string]*merged{}
	for _, sc := range scrapes {
		snap.PerShard = append(snap.PerShard, sc.counters)
		if sc.counters.Live {
			snap.LiveShards++
		}
		if sc.stats == nil {
			continue
		}
		for name, ms := range sc.stats.Models {
			fm, ok := snap.Models[name]
			if !ok {
				fm = FleetModelStats{
					Stages:   map[string]serve.StageStats{},
					PerShard: map[string]ShardModelGauges{},
				}
				merges[name] = &merged{stages: map[string]*obs.HistSnapshot{}}
			}
			mergeCounters(&fm.Counters, ms.Counters)
			fm.PerShard[shardKey(sc.counters.Shard)] = ShardModelGauges{
				QueueDepth:    ms.Counters.QueueDepth,
				QueuePressure: ms.Pressure,
				PoolSize:      ms.PoolSize,
				PoolInFlight:  ms.Counters.PoolInFlight,
				RetryAfterSec: ms.RetryAfterSec,
				CacheHits:     ms.Counters.ResponseCacheHits,
			}
			mg := merges[name]
			for stage, hs := range ms.Stages {
				acc, ok := mg.stages[stage]
				if !ok {
					acc = &obs.HistSnapshot{}
					mg.stages[stage] = acc
				}
				_ = acc.Merge(hs) // layouts are shared by construction
			}
			_ = mg.occupancy.Merge(ms.Occupancy)
			snap.Models[name] = fm
		}
	}
	for name, fm := range snap.Models {
		mg := merges[name]
		for stage, acc := range mg.stages {
			fm.Stages[stage] = histStats(*acc, 1e3) // seconds → ms
		}
		fm.Occupancy = histStats(mg.occupancy, 1)
		// The reservoir percentiles cannot merge across shards; report the
		// merged total-stage histogram's estimates instead, so the summary
		// fields stay populated and honest (bucket-resolution error).
		if total, ok := mg.stages["total"]; ok {
			fm.Counters.P50Ms = total.Quantile(50) * 1e3
			fm.Counters.P90Ms = total.Quantile(90) * 1e3
			fm.Counters.P99Ms = total.Quantile(99) * 1e3
		}
		snap.Models[name] = fm
	}
	return snap
}

// shardKey is the shard index as the label/map key ("0", "1", ...).
func shardKey(s int) string { return strconv.Itoa(s) }

// histStats digests one merged bucket set the way serve.Snapshot digests
// a live histogram (scale converts seconds → ms where applicable).
func histStats(h obs.HistSnapshot, scale float64) serve.StageStats {
	return serve.StageStats{
		Count: h.Count,
		Mean:  h.Mean() * scale,
		P50:   h.Quantile(50) * scale,
		P90:   h.Quantile(90) * scale,
		P99:   h.Quantile(99) * scale,
	}
}

// mergeCounters adds src's additive counters (and sums the live gauges)
// into dst. Rates and means are recomputed request-weighted; the forming
// window, which does not add, reports the widest shard's (each shard's
// own is under PerShard); the identity fields (kernel, scheduler) adopt
// the first shard's value — every shard registers the same models the
// same way.
func mergeCounters(dst *serve.Snapshot, src serve.Snapshot) {
	prevReq, addReq := dst.Requests, src.Requests
	dst.MeanSteps = weightedMean(dst.MeanSteps, prevReq, src.MeanSteps, addReq)
	dst.MeanSpikes = weightedMean(dst.MeanSpikes, prevReq, src.MeanSpikes, addReq)
	dst.Requests += src.Requests
	dst.Errors += src.Errors
	dst.AdmissionErrors += src.AdmissionErrors
	dst.SheddedRequests += src.SheddedRequests
	dst.SimulationErrors += src.SimulationErrors
	dst.EarlyExits += src.EarlyExits
	if dst.Requests > 0 {
		dst.EarlyExitRate = float64(dst.EarlyExits) / float64(dst.Requests)
	}
	dst.Batches += src.Batches
	prevB := dst.Batches - src.Batches
	dst.MeanBatchOccupancy = weightedMean(dst.MeanBatchOccupancy, prevB, src.MeanBatchOccupancy, src.Batches)
	dst.BatchStepsSaved += src.BatchStepsSaved
	dst.SchedLockstepBatches += src.SchedLockstepBatches
	dst.SchedSequentialBatches += src.SchedSequentialBatches
	if len(src.SchedReasons) > 0 {
		if dst.SchedReasons == nil {
			dst.SchedReasons = map[string]int64{}
		}
		for reason, n := range src.SchedReasons {
			dst.SchedReasons[reason] += n
		}
	}
	dst.LockstepFallbacks += src.LockstepFallbacks
	dst.FormWaits.Joined += src.FormWaits.Joined
	dst.FormWaits.Fruitless += src.FormWaits.Fruitless
	dst.FormWindowMs = max(dst.FormWindowMs, src.FormWindowMs)
	dst.ExitHistoryHits += src.ExitHistoryHits
	dst.ExitHistoryMisses += src.ExitHistoryMisses
	dst.DedupedRequests += src.DedupedRequests
	dst.EncoderCacheHits += src.EncoderCacheHits
	dst.EncoderCacheMisses += src.EncoderCacheMisses
	dst.ResponseCacheHits += src.ResponseCacheHits
	dst.ResponseCacheMisses += src.ResponseCacheMisses
	dst.DegradedRequests += src.DegradedRequests
	dst.Evictions += src.Evictions
	dst.Warms += src.Warms
	dst.FairGrants += src.FairGrants
	dst.FairWaiting += src.FairWaiting
	dst.QueueDepth += src.QueueDepth
	dst.PoolInFlight += src.PoolInFlight
	dst.PoolSize += src.PoolSize
	if dst.BatchKernel == "" {
		dst.BatchKernel = src.BatchKernel
	}
	if dst.Scheduler == "" {
		dst.Scheduler = src.Scheduler
	}
}

func weightedMean(a float64, na int64, b float64, nb int64) float64 {
	if na+nb == 0 {
		return 0
	}
	return (a*float64(na) + b*float64(nb)) / float64(na+nb)
}

// writeProm emits the fleet's Prometheus page: fleet routing counters
// and per-(shard, model) gauges under a shard label, plus the MERGED
// per-model stage and occupancy histogram families — exactly what one
// server exposing all shards' traffic would have shown. Validated by
// obs.ValidatePromText in the tests and the fleet selftest.
func (f *Fleet) writeProm(w io.Writer) error {
	return writePromScrapes(w, time.Since(f.start).Seconds(), f.scrape())
}

func writePromScrapes(w io.Writer, uptime float64, scrapes []shardScrape) error {
	pw := obs.NewPromWriter(w)

	pw.Header("burstsnn_fleet_uptime_seconds", "Fleet front-tier uptime.", "gauge")
	pw.Metric("burstsnn_fleet_uptime_seconds", nil, uptime)

	snap := buildSnapshot(uptime, scrapes)
	pw.Header("burstsnn_fleet_shards", "Configured shard count.", "gauge")
	pw.Metric("burstsnn_fleet_shards", nil, float64(snap.Shards))
	pw.Header("burstsnn_fleet_live_shards", "Shards currently serving.", "gauge")
	pw.Metric("burstsnn_fleet_live_shards", nil, float64(snap.LiveShards))

	shardCounter := func(name, help string, get func(ShardCounters) float64) {
		pw.Header(name, help, "counter")
		for _, sc := range scrapes {
			pw.Metric(name, []obs.Label{{Name: "shard", Value: shardKey(sc.counters.Shard)}},
				get(sc.counters))
		}
	}
	shardCounter("burstsnn_fleet_dispatched_total",
		"Requests answered per shard (routing view: success or request-level error).",
		func(c ShardCounters) float64 { return float64(c.Dispatched) })
	shardCounter("burstsnn_fleet_fallbacks_total",
		"Requests that arrived at this shard after their owner shed them (bounded-load fallback).",
		func(c ShardCounters) float64 { return float64(c.Fallbacks) })
	shardCounter("burstsnn_fleet_sheds_total",
		"Requests this shard shed with 429.",
		func(c ShardCounters) float64 { return float64(c.Sheds) })
	shardCounter("burstsnn_fleet_dead_skips_total",
		"Requests routed past this shard while it was down.",
		func(c ShardCounters) float64 { return float64(c.DeadSkips) })
	shardCounter("burstsnn_fleet_respawns_total",
		"Times the supervisor rebuilt this shard's worker.",
		func(c ShardCounters) float64 { return float64(c.Respawns) })

	// Stable model order for diffable scrapes.
	names := make([]string, 0, len(snap.Models))
	for name := range snap.Models {
		names = append(names, name)
	}
	sort.Strings(names)

	modelCounter := func(name, help string, get func(serve.Snapshot) float64) {
		pw.Header(name, help, "counter")
		for _, n := range names {
			pw.Metric(name, []obs.Label{{Name: "model", Value: n}},
				get(snap.Models[n].Counters))
		}
	}
	modelCounter("burstsnn_fleet_requests_total",
		"Fleet-wide successfully served classifications (summed across shards).",
		func(s serve.Snapshot) float64 { return float64(s.Requests) })
	modelCounter("burstsnn_fleet_shedded_requests_total",
		"Fleet-wide overload sheds.",
		func(s serve.Snapshot) float64 { return float64(s.SheddedRequests) })
	modelCounter("burstsnn_fleet_response_cache_hits_total",
		"Fleet-wide response-cache hits (shard affinity keeps these per-shard caches hot).",
		func(s serve.Snapshot) float64 { return float64(s.ResponseCacheHits) })
	modelCounter("burstsnn_fleet_response_cache_misses_total",
		"Fleet-wide response-cache misses.",
		func(s serve.Snapshot) float64 { return float64(s.ResponseCacheMisses) })
	modelCounter("burstsnn_fleet_early_exits_total",
		"Fleet-wide early-exited requests.",
		func(s serve.Snapshot) float64 { return float64(s.EarlyExits) })
	modelCounter("burstsnn_fleet_batches_total",
		"Fleet-wide executed lockstep microbatches.",
		func(s serve.Snapshot) float64 { return float64(s.Batches) })
	pw.Header("burstsnn_fleet_form_waits_total",
		"Fleet-wide partial batches by how they left the forming stage (joined, fruitless; see burstsnn_form_waits_total).",
		"counter")
	for _, name := range names {
		snap.Models[name].Counters.FormWaits.Each(func(outcome string, n int64) {
			pw.Metric("burstsnn_fleet_form_waits_total", []obs.Label{
				{Name: "model", Value: name}, {Name: "outcome", Value: outcome},
			}, float64(n))
		})
	}
	modelCounter("burstsnn_fleet_model_evictions_total",
		"Fleet-wide model evict cycles (pool released, conversion archived).",
		func(s serve.Snapshot) float64 { return float64(s.Evictions) })
	modelCounter("burstsnn_fleet_model_warms_total",
		"Fleet-wide warm cycles (model restored from the archive on demand).",
		func(s serve.Snapshot) float64 { return float64(s.Warms) })

	shardGauge := func(name, help string, get func(ShardModelGauges) float64) {
		pw.Header(name, help, "gauge")
		for _, n := range names {
			per := snap.Models[n].PerShard
			keys := make([]string, 0, len(per))
			for k := range per {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				pw.Metric(name, []obs.Label{
					{Name: "model", Value: n}, {Name: "shard", Value: k},
				}, get(per[k]))
			}
		}
	}
	shardGauge("burstsnn_fleet_queue_depth",
		"Requests waiting in the shard's admission queue right now.",
		func(g ShardModelGauges) float64 { return float64(g.QueueDepth) })
	shardGauge("burstsnn_fleet_queue_pressure",
		"Shard queue-fill EWMA (the autoscaler's control signal).",
		func(g ShardModelGauges) float64 { return g.QueuePressure })
	shardGauge("burstsnn_fleet_form_window_seconds",
		"Shard's live batch-forming window (a sixteenth of the configured max delay up to all of it).",
		func(g ShardModelGauges) float64 { return g.FormWindowMs / 1e3 })
	shardGauge("burstsnn_fleet_pool_size",
		"Shard replica-pool width (moves under autoscaling).",
		func(g ShardModelGauges) float64 { return float64(g.PoolSize) })
	shardGauge("burstsnn_fleet_pool_in_flight",
		"Shard replicas checked out right now.",
		func(g ShardModelGauges) float64 { return float64(g.PoolInFlight) })
	shardGauge("burstsnn_fleet_retry_after_seconds",
		"Shard drain-time projection (what a 429 on this shard's behalf carries).",
		func(g ShardModelGauges) float64 { return g.RetryAfterSec })

	// Merged histogram families: re-merge the raw buckets here (the
	// snapshot digested them to quantiles already).
	type mergedHists struct {
		stages    map[string]*obs.HistSnapshot
		occupancy map[string]*obs.HistSnapshot // per shard key
	}
	hm := map[string]*mergedHists{}
	for _, sc := range scrapes {
		if sc.stats == nil {
			continue
		}
		for name, ms := range sc.stats.Models {
			m, ok := hm[name]
			if !ok {
				m = &mergedHists{stages: map[string]*obs.HistSnapshot{}, occupancy: map[string]*obs.HistSnapshot{}}
				hm[name] = m
			}
			for stage, hs := range ms.Stages {
				acc, ok := m.stages[stage]
				if !ok {
					acc = &obs.HistSnapshot{}
					m.stages[stage] = acc
				}
				_ = acc.Merge(hs)
			}
			occ := ms.Occupancy
			m.occupancy[shardKey(sc.counters.Shard)] = &occ
		}
	}
	pw.Header("burstsnn_fleet_stage_duration_seconds",
		"Per-request stage spans merged across shards (bucket-exact: per-shard histograms share a layout).",
		"histogram")
	for _, n := range names {
		m := hm[n]
		if m == nil {
			continue
		}
		stages := make([]string, 0, len(m.stages))
		for stage := range m.stages {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		for _, stage := range stages {
			pw.Histogram("burstsnn_fleet_stage_duration_seconds", []obs.Label{
				{Name: "model", Value: n}, {Name: "stage", Value: stage},
			}, *m.stages[stage])
		}
	}
	pw.Header("burstsnn_fleet_batch_occupancy",
		"Lane occupancy of executed lockstep microbatches, per shard.",
		"histogram")
	for _, n := range names {
		m := hm[n]
		if m == nil {
			continue
		}
		keys := make([]string, 0, len(m.occupancy))
		for k := range m.occupancy {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pw.Histogram("burstsnn_fleet_batch_occupancy", []obs.Label{
				{Name: "model", Value: n}, {Name: "shard", Value: k},
			}, *m.occupancy[k])
		}
	}
	return pw.Flush()
}
