package serve

import (
	"encoding/json"
	"fmt"
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
	// ModelHists are the raw stage, occupancy and exit-prediction-error
	// buckets behind the snapshot's digests.
	ModelHists
	// Pressure is the shard's smoothed queue-fill signal (the autoscaler
	// input); RetryAfterSec the shard's own drain-time projection, which
	// the front tier must surface verbatim on 429s for this shard.
	Pressure      float64 `json:"pressure"`
	RetryAfterSec float64 `json:"retryAfterSec"`
	PoolSize      int     `json:"poolSize"`
	PoolMax       int     `json:"poolMax"`
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
			ms.Pressure = row.batcher.Pressure()
			ms.RetryAfterSec = row.batcher.RetryAfter().Seconds()
		} else {
			ms.RetryAfterSec = time.Second.Seconds()
		}
		if row.pool != nil {
			ms.PoolSize = row.pool.Size()
			ms.PoolMax = row.pool.Max()
		}
		out.Models[row.name] = ms
	}
	return out
}

func (s *Server) handleShardStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ShardStats())
}

// poolResizeRequest is the POST /v1/pool body; the response echoes the
// model with the clamped replica count actually in effect.
type poolResizeRequest struct {
	Model    string `json:"model"`
	Replicas int    `json:"replicas"`
}

func (s *Server) handlePoolResize(w http.ResponseWriter, r *http.Request) {
	var req poolResizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	n, err := s.ResizePool(req.Model, req.Replicas)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": req.Model, "replicas": n})
}
