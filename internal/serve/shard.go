package serve

import (
	"net/http"
	"time"
)

// ShardStats is the wire view a fleet front tier scrapes from one shard
// (GET /metrics/shard, or Server.ShardStats in process): the digested
// counters plus the RAW histogram buckets (ModelHists), so the front
// tier can merge shards with obs.HistSnapshot.Merge and report fleet
// quantiles at full bucket resolution — digested percentiles don't merge,
// buckets do.
type ShardStats struct {
	UptimeSec float64                    `json:"uptimeSec"`
	Models    map[string]ModelShardStats `json:"models"`
}

// ModelShardStats is one model's slice of a ShardStats scrape.
type ModelShardStats struct {
	// Counters is the model's /metrics snapshot (requests, sheds, cache
	// hits, live gauges) — everything additive across shards plus the
	// per-shard gauges the fleet reports under a shard label.
	Counters Snapshot `json:"counters"`
	// ModelHists are the raw stage buckets behind the snapshot's
	// digests.
	ModelHists
	// RetryAfterSec is the shard's own drain-time projection (the fleet
	// page's per-shard retry_after_seconds gauge).
	RetryAfterSec float64 `json:"retryAfterSec"`
}

// ShardStats collects the shard-facing stats for every known model —
// evicted models included (retained counters, zero pool/pressure
// gauges), so fleet exposition stays continuous across evict/warm
// cycles.
func (s *Server) ShardStats() ShardStats {
	out := ShardStats{
		UptimeSec: time.Since(s.start).Seconds(),
		Models:    map[string]ModelShardStats{},
	}
	for _, row := range s.statRows() {
		ms := ModelShardStats{Counters: s.fillSnapshot(row), ModelHists: row.met.Hists()}
		if row.batcher != nil {
			ms.RetryAfterSec = row.batcher.RetryAfter().Seconds()
		} else {
			ms.RetryAfterSec = time.Second.Seconds()
		}
		out.Models[row.name] = ms
	}
	return out
}

func (s *Server) handleShardStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.ShardStats())
}
