package serve

import (
	"math"
	"sync/atomic"
	"time"

	"burstsnn/internal/obs"
)

// Metrics accumulates serving statistics for one model (or globally).
// All methods are safe for concurrent use.
type Metrics struct {
	// Served-request sums. Observe adds requests first and Snapshot reads
	// it last, so a concurrent scrape never sees more early exits than
	// requests.
	requests   atomic.Int64
	earlyExits atomic.Int64
	stepsSum   atomic.Int64
	spikesSum  atomic.Int64

	// stage are the fixed-bucket log-scale duration histograms, one per
	// obs.Stage (queue, form, encode, simulate, readout, total): the one
	// latency summary. Their tails compose over the model's whole
	// lifetime, merge across models and shards, and scrape as plain
	// counters (Prometheus exposition reads them directly); the snapshot's
	// P50Ms/P90Ms/P99Ms are the total stage's estimates.
	stage [obs.NumStages]*obs.Histogram

	// Error accounting is split by where the failure happened:
	// errAdmission counts requests the server refused before simulation
	// for non-overload reasons (validation, shutdown); errShed counts
	// overload sheds (full queue, projected-wait refusal, deadline
	// expiry, cancellation); errSim counts failures inside batch
	// execution (injected faults, simulator errors).
	errAdmission atomic.Int64
	errShed      atomic.Int64
	errSim       atomic.Int64

	// degraded counts requests served under the degraded-mode tightened
	// exit policy (successful responses, not errors).
	degraded atomic.Int64

	// evictions and warms count lifecycle cycles: evictions is how often
	// the model's pool was released to the archive, warms how often it
	// was restored from it on demand. Both survive the cycle (the metrics
	// accumulator itself is what the archive retains).
	evictions atomic.Int64
	warms     atomic.Int64

	// Forming-window accounting (see form.go): partial batches by
	// FormOutcome.
	formWaits [formOutcomes]atomic.Int64

	// Read counters of the model's response cache. Every install builds
	// a fresh cache that counts into these (NewResponseCache's count), so
	// the numbers are continuous across re-registration and evict/warm
	// while the accumulator holds no cache: an evicted model's images are
	// garbage.
	responseCache hitMiss
}

// hitMiss is the pair of read counters a ResponseCache counts into.
type hitMiss struct{ hits, misses atomic.Int64 }

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for s := range m.stage {
		m.stage[s] = obs.NewDurationHistogram()
	}
	return m
}

// ObserveAdmissionError records a request refused or timed out before it
// simulated (queue deadline, shutdown, validation rejection).
func (m *Metrics) ObserveAdmissionError() { m.errAdmission.Add(1) }

// ObserveSimError records a failure inside batch execution (an injected
// fault, a simulator error).
func (m *Metrics) ObserveSimError() { m.errSim.Add(1) }

// ObserveShed records a request shed by the overload plane: refused at
// admission (full queue, projected wait past the deadline) or expired
// before execution completed.
func (m *Metrics) ObserveShed() { m.errShed.Add(1) }

// ObserveDegraded records a request served under the degraded-mode
// tightened exit policy.
func (m *Metrics) ObserveDegraded() { m.degraded.Add(1) }

// ObserveEviction records the model being evicted (pool released,
// conversion archived).
func (m *Metrics) ObserveEviction() { m.evictions.Add(1) }

// ObserveWarm records the model being restored from the archive on
// demand.
func (m *Metrics) ObserveWarm() { m.warms.Add(1) }

// Observe records one served classification and its end-to-end span.
// Lock-free and allocation-free: four counter adds and one histogram
// observation.
func (m *Metrics) Observe(o Outcome, latency time.Duration) {
	m.requests.Add(1)
	if o.EarlyExit {
		m.earlyExits.Add(1)
	}
	m.stepsSum.Add(int64(o.Steps))
	m.spikesSum.Add(int64(o.TotalSpikes()))
	m.stage[obs.StageTotal].ObserveDuration(latency)
}

// ObserveStages records the pipeline spans of a request that executed.
// Requests that never entered the pipeline (response-cache hits) skip it,
// so the per-stage histograms stay pure measurements of executed work.
// Allocation-free and lock-free; BenchmarkObserveStages pins the cost.
func (m *Metrics) ObserveStages(st obs.StageTimes) {
	m.stage[obs.StageQueue].ObserveDuration(st.Queue)
	m.stage[obs.StageForm].ObserveDuration(st.Form)
	m.stage[obs.StageEncode].ObserveDuration(st.Encode)
	m.stage[obs.StageSimulate].ObserveDuration(st.Simulate)
	m.stage[obs.StageReadout].ObserveDuration(st.Readout)
}

// FormOutcome is how a batch that was still short after the dispatcher's
// yield left the forming stage.
type FormOutcome int

const (
	FormJoined    FormOutcome = iota // a request joined during the timed wait
	FormFruitless                    // the timed wait gained nobody
	FormSkipped                      // the window was zero: no timer was armed
	formOutcomes
)

// ObserveFormWait records how one short batch left the forming stage.
func (m *Metrics) ObserveFormWait(outcome FormOutcome) {
	m.formWaits[outcome].Add(1)
}

// StageStats is the JSON summary of one stage histogram: observation
// count plus mean and percentile estimates in milliseconds over the
// model's lifetime. The estimates interpolate inside the √2-wide bucket
// holding the exact nearest-rank value, so they carry bucket-resolution
// error, never forget old tails, and merge across shards
// (Snapshot.Derive over merged buckets).
type StageStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// FormWaits counts how partial batches left the forming stage: after a
// timed wait that a request joined, after one that gained nobody, or with
// no wait at all because the window was zero. Joined + Fruitless + Skipped
// is the number of adaptive batches that were still short after the
// dispatcher's yield; batches that were full before any wait, and every
// batch of a drain-only batcher, count nowhere.
type FormWaits struct {
	Joined    int64 `json:"joined"`
	Fruitless int64 `json:"fruitless"`
	Skipped   int64 `json:"skipped"`
}

// Snapshot is a point-in-time metrics view, JSON-shaped for /metrics.
type Snapshot struct {
	Requests int64 `json:"requests"`
	// Errors totals the split counters below (the pre-split schema).
	Errors int64 `json:"errors"`
	// AdmissionErrors counts requests refused before simulation for
	// non-overload reasons (validation, shutdown); SheddedRequests
	// counts overload sheds (full queue, projected-wait refusal,
	// deadline expiry, cancellation — HTTP 429/504);
	// SimulationErrors counts failures inside execution.
	AdmissionErrors  int64 `json:"admissionErrors"`
	SheddedRequests  int64 `json:"sheddedRequests"`
	SimulationErrors int64 `json:"simulationErrors"`
	// EarlyExits counts requests that exited before their full step
	// budget; EarlyExitRate is the same as a fraction of requests.
	EarlyExits    int64   `json:"earlyExits"`
	EarlyExitRate float64 `json:"earlyExitRate"`
	// MeanSteps is the mean simulated steps per request — the serving
	// form of the paper's latency metric.
	MeanSteps float64 `json:"meanSteps"`
	// MeanSpikes is the mean total spikes per request — the serving form
	// of the paper's efficiency metric.
	MeanSpikes float64 `json:"meanSpikes"`
	// P50/P90/P99 are wall-clock latency percentiles in milliseconds:
	// Stages["total"]'s lifetime, bucket-resolution estimates under the
	// summary keys (a fleet front reports the merged buckets' the same way).
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
	// Stages breaks the request down by pipeline stage (queue, form,
	// encode, simulate, readout, total — see internal/obs for the
	// taxonomy) over lifetime histograms.
	Stages map[string]StageStats `json:"stages,omitempty"`
	// Batches, MeanBatchOccupancy and ExitHistoryHits/Misses are retired:
	// they counted the lockstep route and the exit-step history, which
	// serving no longer has, and always read zero. They stay in the JSON
	// schema only for readers that still difference them.
	Batches            int64   `json:"batches"`
	MeanBatchOccupancy float64 `json:"meanBatchOccupancy"`
	ExitHistoryHits    int64   `json:"exitHistoryHits"`
	ExitHistoryMisses  int64   `json:"exitHistoryMisses"`
	// FormWaits is what waiting for company earned (see FormWaits), and
	// FormWindowMs the live forming window — MaxDelay at most, zero for
	// traffic that waiting does not gather — filled by the server at
	// scrape time.
	FormWaits    FormWaits `json:"formWaits"`
	FormWindowMs float64   `json:"formWindowMs"`
	// DedupedRequests is retired with the batcher's in-batch dedupe, and
	// EncoderCacheHits/Misses with the encoders' quantization cache; all
	// three always read zero, like Batches above.
	DedupedRequests    int64 `json:"dedupedRequests"`
	EncoderCacheHits   int64 `json:"encoderCacheHits"`
	EncoderCacheMisses int64 `json:"encoderCacheMisses"`
	// ResponseCacheHits/Misses are the cross-batch response cache's
	// lookup counters (hits are replayed requests served without a queue
	// slot or replica checkout).
	ResponseCacheHits   int64 `json:"responseCacheHits"`
	ResponseCacheMisses int64 `json:"responseCacheMisses"`
	// DegradedRequests counts requests served under the degraded-mode
	// tightened exit policy.
	DegradedRequests int64 `json:"degradedRequests"`
	// Live gauges, filled by the server at scrape time (zero when the
	// snapshot comes straight from Metrics.Snapshot): requests waiting in
	// the model's admission queue, replicas checked out right now, the
	// pool bound, and the degraded-mode state machine's mode
	// ("off"/"normal"/"degraded") with its smoothed queue-pressure
	// signal.
	QueueDepth    int     `json:"queueDepth"`
	PoolInFlight  int     `json:"poolInFlight"`
	PoolSize      int     `json:"poolSize"`
	DegradeMode   string  `json:"degradeMode,omitempty"`
	QueuePressure float64 `json:"queuePressure"`

	// Lifecycle: the model's current state ("resident"/"evicted", filled
	// by the server at scrape time) and how many evict/warm cycles it has
	// been through (counted in the retained accumulator, so they survive
	// the cycle they describe).
	State     string `json:"state,omitempty"`
	Evictions int64  `json:"evictions"`
	Warms     int64  `json:"warms"`

	// Fair-share gauges, filled by the server at scrape time when the
	// weighted-fair dispatcher is enabled: configured weight, normalized
	// share of the slot capacity, total slot grants, and how many of the
	// model's batches are waiting for a slot right now (the starvation
	// signal).
	FairWeight  float64 `json:"fairWeight,omitempty"`
	FairShare   float64 `json:"fairShare,omitempty"`
	FairGrants  int64   `json:"fairGrants,omitempty"`
	FairWaiting int     `json:"fairWaiting,omitempty"`
}

// digest summarizes one stage histogram's buckets in milliseconds.
func digest(h obs.HistSnapshot) StageStats {
	const ms = 1e3 // stored in seconds
	return StageStats{
		Count: h.Count,
		Mean:  h.Mean() * ms,
		P50:   h.Quantile(50) * ms,
		P90:   h.Quantile(90) * ms,
		P99:   h.Quantile(99) * ms,
	}
}

// Hists copies the model's raw histogram buckets.
func (m *Metrics) Hists() ModelHists {
	h := ModelHists{Stages: make(map[string]obs.HistSnapshot, obs.NumStages)}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		h.Stages[st.String()] = m.stage[st].Snapshot()
	}
	return h
}

// Snapshot computes the current view without taking a lock a request
// path holds: counters are atomic loads, the digests read bucket copies.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	s.EarlyExits = m.earlyExits.Load()
	steps, spikes := m.stepsSum.Load(), m.spikesSum.Load()
	s.Requests = m.requests.Load() // last: see the field comment
	if s.Requests > 0 {
		s.MeanSteps = float64(steps) / float64(s.Requests)
		s.MeanSpikes = float64(spikes) / float64(s.Requests)
	}
	s.AdmissionErrors = m.errAdmission.Load()
	s.SheddedRequests = m.errShed.Load()
	s.SimulationErrors = m.errSim.Load()
	s.DegradedRequests = m.degraded.Load()
	s.Evictions = m.evictions.Load()
	s.Warms = m.warms.Load()
	s.FormWaits = FormWaits{
		Joined:    m.formWaits[FormJoined].Load(),
		Fruitless: m.formWaits[FormFruitless].Load(),
		Skipped:   m.formWaits[FormSkipped].Load(),
	}
	s.ResponseCacheHits, s.ResponseCacheMisses = m.responseCache.hits.Load(), m.responseCache.misses.Load()
	s.Derive(m.Hists())
	return s
}

// Percentile reads the p-th percentile from an ascending slice using the
// standard nearest-rank method, rank = ⌈p/100·n⌉ (also used by
// load-generator reporting). Rounding the rank to nearest instead of up
// would read one sample too low whenever p/100·n lands on (or just above)
// an integer — e.g. p99 over 100 samples must be the 99th rank
// (sorted[98])… and p100 the maximum, never beyond it.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
