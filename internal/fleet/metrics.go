package fleet

import (
	"io"
	"maps"
	"slices"
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

// FleetModelStats is one model's fleet-wide view. Counters is the shards'
// snapshots folded by the rules of serve's metric table
// (serve.MergeSnapshot), with its digests and latency percentiles
// recomputed from the MERGED raw histogram buckets (serve.ModelHists.Merge,
// Snapshot.Derive) — the estimates one big histogram fed every shard's
// observations would report, which digested per-shard percentiles cannot
// reproduce. Stages repeats Counters' digests under the key it has always
// had.
type FleetModelStats struct {
	Counters serve.Snapshot              `json:"counters"`
	Stages   map[string]serve.StageStats `json:"stages"`
	PerShard map[string]ShardModelGauges `json:"perShard"`

	hists serve.ModelHists // the merged buckets, for the exposition page
}

// ShardModelGauges is one shard's own view of a model — its whole
// snapshot, live gauges included, which the page exposes under a shard
// label — plus the shard's drain-time projection.
type ShardModelGauges struct {
	serve.Snapshot
	RetryAfterSec float64 `json:"retryAfterSec"`
}

// FleetSnapshot is the front tier's /metrics JSON.
type FleetSnapshot struct {
	UptimeSec  float64                    `json:"uptimeSec"`
	Shards     int                        `json:"shards"`
	LiveShards int                        `json:"liveShards"`
	PerShard   []ShardCounters            `json:"perShard"`
	Models     map[string]FleetModelStats `json:"models"`
}

// Snapshot assembles the fleet-wide metrics view: every shard's routing
// counters, and each live shard's telemetry scrape merged per model (a
// shard whose scrape fails reads as down).
func (f *Fleet) Snapshot() FleetSnapshot {
	snap := FleetSnapshot{
		UptimeSec: time.Since(f.start).Seconds(),
		Shards:    f.cfg.Shards,
		PerShard:  make([]ShardCounters, f.cfg.Shards),
		Models:    map[string]FleetModelStats{},
	}
	for s := range snap.PerShard {
		c := &f.counters[s]
		sc := &snap.PerShard[s]
		*sc = ShardCounters{
			Shard:      s,
			Dispatched: c.dispatched.Load(),
			Fallbacks:  c.fallbacks.Load(),
			Sheds:      c.sheds.Load(),
			DeadSkips:  c.deadSkips.Load(),
			Respawns:   c.respawns.Load(),
		}
		w := f.Worker(s)
		if w == nil {
			continue
		}
		stats, err := w.Stats()
		if err != nil {
			continue
		}
		sc.Live = true
		snap.LiveShards++
		for name, ms := range stats.Models {
			fm, ok := snap.Models[name]
			if !ok {
				fm.PerShard = map[string]ShardModelGauges{}
			}
			serve.MergeSnapshot(&fm.Counters, ms.Counters)
			fm.hists.Merge(ms.ModelHists)
			fm.PerShard[strconv.Itoa(s)] = ShardModelGauges{Snapshot: ms.Counters, RetryAfterSec: ms.RetryAfterSec}
			snap.Models[name] = fm
		}
	}
	for name, fm := range snap.Models {
		fm.Counters.Derive(fm.hists)
		fm.Stages = fm.Counters.Stages
		snap.Models[name] = fm
	}
	return snap
}

// writeProm emits the fleet's Prometheus page: routing counters per
// shard, then serve's per-model table under the burstsnn_fleet_ prefix —
// counters, info and histogram families from the cross-shard merge under
// a model label (what one server taking all shards' traffic would have
// shown), gauges once per shard under model and shard. Validated by
// obs.ValidatePromText in the tests and the fleet selftest.
func (f *Fleet) writeProm(w io.Writer) error {
	return writePromSnapshot(w, f.Snapshot())
}

func writePromSnapshot(w io.Writer, snap FleetSnapshot) error {
	pw := obs.NewPromWriter(w)

	pw.Header("burstsnn_fleet_uptime_seconds", "Fleet front-tier uptime.", "gauge")
	pw.Metric("burstsnn_fleet_uptime_seconds", nil, snap.UptimeSec)
	pw.Header("burstsnn_fleet_shards", "Configured shard count.", "gauge")
	pw.Metric("burstsnn_fleet_shards", nil, float64(snap.Shards))
	pw.Header("burstsnn_fleet_live_shards", "Shards currently serving.", "gauge")
	pw.Metric("burstsnn_fleet_live_shards", nil, float64(snap.LiveShards))

	shardCounter := func(name, help string, get func(ShardCounters) int64) {
		pw.Header(name, help, "counter")
		for _, c := range snap.PerShard {
			pw.Metric(name, []obs.Label{{Name: "shard", Value: strconv.Itoa(c.Shard)}}, float64(get(c)))
		}
	}
	shardCounter("burstsnn_fleet_dispatched_total",
		"Requests answered per shard (routing view: success or request-level error).",
		func(c ShardCounters) int64 { return c.Dispatched })
	shardCounter("burstsnn_fleet_fallbacks_total",
		"Requests that arrived at this shard after their owner shed them (bounded-load fallback).",
		func(c ShardCounters) int64 { return c.Fallbacks })
	shardCounter("burstsnn_fleet_sheds_total",
		"Requests this shard shed with 429.",
		func(c ShardCounters) int64 { return c.Sheds })
	shardCounter("burstsnn_fleet_dead_skips_total",
		"Requests routed past this shard while it was down.",
		func(c ShardCounters) int64 { return c.DeadSkips })
	shardCounter("burstsnn_fleet_respawns_total",
		"Times the supervisor rebuilt this shard's worker.",
		func(c ShardCounters) int64 { return c.Respawns })

	// Stable model and shard order for diffable scrapes.
	var merged, live []serve.PromRow
	pw.Header("burstsnn_fleet_retry_after_seconds",
		"Shard drain-time projection (what a 429 on this shard's behalf carries).", "gauge")
	for _, name := range slices.Sorted(maps.Keys(snap.Models)) {
		fm := snap.Models[name]
		model := obs.Label{Name: "model", Value: name}
		merged = append(merged, serve.PromRow{Labels: []obs.Label{model}, Snap: &fm.Counters, Hists: &fm.hists})
		for _, shard := range slices.Sorted(maps.Keys(fm.PerShard)) {
			g := fm.PerShard[shard]
			labels := []obs.Label{model, {Name: "shard", Value: shard}}
			live = append(live, serve.PromRow{Labels: labels, Snap: &g.Snapshot})
			pw.Metric("burstsnn_fleet_retry_after_seconds", labels, g.RetryAfterSec)
		}
	}
	// The front cannot know whether its shards run the fair dispatcher, so
	// the fair families are always on the page (zeros when they do not).
	serve.WriteModelFamilies(pw, "burstsnn_fleet_", true, merged, live)
	return pw.Flush()
}
