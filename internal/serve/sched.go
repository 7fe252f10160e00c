package serve

import (
	"fmt"
	"sort"
	"sync"

	"burstsnn/internal/coding"
)

// This file is the serving scheduling plane: every decision about *how*
// a formed microbatch executes — lockstep through the batch simulator or
// back to back on the replica, and in what lane order — lives behind the
// Scheduler interface instead of constants scattered through the
// batcher. Two implementations ship: StaticSched (the fixed
// request-count rule serving used through PR 5) and AdaptiveSched (a
// per-microbatch feedback controller steered by measured occupancy,
// the LockstepBatch "auto" default). Scheduling is outcome-invariant by
// construction: a scheduler only reorders which requests share a
// microbatch and picks the execution mode — per-request Outcomes stay
// pinned by the bit-identity/tolerance contracts either way.

// Decision reasons, the `reason` label on the steering counters
// (burstsnn_sched_decisions_total and Snapshot.SchedReasons). They make
// a steering regression diagnosable from a metrics scrape alone: a
// plane stuck on "cold-start" never measured a batch, one stuck on
// "occupancy-low" is seeing exits erode its batches.
const (
	// ReasonDisabled: the policy never dispatches lockstep (LockstepOff,
	// or LockstepAuto on the purego tier).
	ReasonDisabled = "disabled"
	// ReasonBelowMin: fewer live requests than the static threshold.
	ReasonBelowMin = "below-min"
	// ReasonStaticMin: the static request-count rule fired (LockstepOn
	// uses the rule with threshold 2, so forced-on batches land here).
	ReasonStaticMin = "static-min"
	// ReasonColdStart: the adaptive controller had no occupancy
	// measurements yet and fell back to the static rule.
	ReasonColdStart = "cold-start"
	// ReasonOccHigh / ReasonOccLow: the adaptive controller estimated
	// the batch's occupancy above / below the lockstep crossover.
	ReasonOccHigh = "occupancy-high"
	ReasonOccLow  = "occupancy-low"
)

// Decision is a scheduler's verdict for one formed microbatch.
type Decision struct {
	// Lockstep selects the batch simulator; false runs the requests back
	// to back on the replica.
	Lockstep bool
	// Reason names why (the Reason* constants), for the steering
	// counters and the selftest decision trace.
	Reason string
	// EstOccupancy is the occupancy estimate the decision was based on
	// (0 when the policy doesn't estimate, e.g. the static rules).
	EstOccupancy float64
}

// Scheduler owns the lockstep-vs-sequential decision for multi-request
// microbatches. Implementations must be safe for concurrent use: the
// batcher calls Decide from every batch-execution goroutine and feeds
// ObserveOccupancy back from both execution paths.
type Scheduler interface {
	// Decide picks the execution mode for a formed microbatch of lanes
	// live (deduped) requests. preds carries the exit-history
	// predictions aligned with the batch's lanes — preds[i] <= 0 means
	// lane i has no prediction; preds may be nil when no history is
	// attached.
	Decide(lanes int, preds []int) Decision
	// ObserveOccupancy feeds back one executed multi-request batch:
	// the lane count, the batch's lockstep step count (its slowest
	// lane), and the per-lane exit-step sum. Sequential dispatches
	// report the same triple for the batch they *would* have been
	// (max steps, summed steps), so the controller keeps measuring the
	// workload's occupancy even while it steers sequential — no
	// exploration traffic needed.
	ObserveOccupancy(lanes, batchSteps, laneStepsSum int)
	// Name identifies the policy in /metrics and bench output.
	Name() string
}

// StaticSched is the fixed request-count rule: batches of at least min
// live requests run lockstep, smaller ones run sequentially. min <= 0
// never dispatches lockstep (the LockstepOff policy); min 1 is
// normalized to 2 (a single request has nothing to lockstep with).
// It backs LockstepOn / LockstepOff, LockstepAuto on the purego tier,
// and the cold-start fallback inside AdaptiveSched.
type StaticSched struct {
	min int
}

// NewStaticSched builds the static rule with the given threshold.
func NewStaticSched(min int) *StaticSched {
	if min == 1 {
		min = 2
	}
	return &StaticSched{min: min}
}

// Min returns the configured threshold (0 = never lockstep).
func (s *StaticSched) Min() int { return s.min }

// Decide applies the request-count rule.
func (s *StaticSched) Decide(lanes int, _ []int) Decision {
	switch {
	case s.min <= 0:
		return Decision{Reason: ReasonDisabled}
	case lanes >= s.min:
		return Decision{Lockstep: true, Reason: ReasonStaticMin}
	default:
		return Decision{Reason: ReasonBelowMin}
	}
}

// ObserveOccupancy is a no-op: the static rule does not measure.
func (s *StaticSched) ObserveOccupancy(lanes, batchSteps, laneStepsSum int) {}

// Name identifies the policy.
func (s *StaticSched) Name() string {
	if s.min <= 0 {
		return "sequential"
	}
	return fmt.Sprintf("static(min=%d)", s.min)
}

// DefaultOccupancyCrossover is the measured occupancy at which lockstep
// execution breaks even with the sequential engine on the packed
// dispatch tiers: BENCH_batch.json brackets the crossover between the
// B=4 point (occupancy ≈1.6, lockstep ~0.7–0.8× sequential) and the B=8
// point (occupancy ≈2.4, ~1.4–2.0×), so the default takes the midpoint
// of the bracket.
//
// Measured after PR 26, constant not yet moved: the sequential engine
// got ≈2.1–2.4× faster on that benchmark and the lockstep plane did not,
// so the same two points now read ~0.30–0.34× (B=4) and ~0.67–0.86×
// (B=8, sse–avx2) — lockstep loses at every measured width on distinct
// images and the break-even lies above occupancy ≈2.4. The value and the
// routing that uses it are PR 25's; re-deciding them is ROADMAP item 2
// (internal/README.md, "When lockstep pays").
const DefaultOccupancyCrossover = 2.0

// Adaptive controller tuning: the EWMA weight for new occupancy
// samples, and how many measured batches the controller wants before it
// trusts its estimate over the static cold-start rule.
const (
	adaptiveEWMAWeight = 0.25
	adaptiveWarmup     = 3
)

// AdaptiveSched is the occupancy feedback controller behind
// LockstepBatch "auto": instead of a hard-coded request count, it
// estimates each candidate microbatch's mean lane occupancy and
// dispatches lockstep exactly when the estimate clears the measured
// crossover.
//
// The estimate composes two signals:
//
//   - per-lane exit-step predictions from the model's ExitHistory: k
//     predicted lanes contribute sum(pred)/max(pred) — the occupancy a
//     batch of exactly those lanes would run at, assuming retirement at
//     the predicted steps;
//   - the measured EWMA occupancy fraction for unpredicted lanes: every
//     executed multi-request batch (lockstep or sequential — sequential
//     dispatches report the batch they would have been) contributes a
//     sample (laneStepsSum/batchSteps)/lanes, the fraction of the batch
//     each lane stayed live for; m unpredicted lanes contribute
//     m × EWMA(fraction).
//
// Until the controller has seen adaptiveWarmup measured batches (and
// the candidate is not fully predicted), it falls back to the static
// request-count rule (ReasonColdStart), so a fresh server behaves
// exactly like PR 5's auto until measurement takes over.
type AdaptiveSched struct {
	crossover float64
	fallback  *StaticSched

	mu      sync.Mutex
	samples int
	occFrac float64 // EWMA of (laneStepsSum/batchSteps)/lanes
}

// NewAdaptiveSched builds the controller. crossover <= 0 uses
// DefaultOccupancyCrossover; fallbackMin is the static cold-start
// threshold (autoLockstepMinLanes at Register time).
func NewAdaptiveSched(crossover float64, fallbackMin int) *AdaptiveSched {
	if crossover <= 0 {
		crossover = DefaultOccupancyCrossover
	}
	return &AdaptiveSched{crossover: crossover, fallback: NewStaticSched(fallbackMin)}
}

// Decide estimates the candidate batch's occupancy and compares it to
// the crossover.
func (a *AdaptiveSched) Decide(lanes int, preds []int) Decision {
	sumPred, maxPred, unpredicted := 0, 0, lanes
	for _, p := range preds {
		if p > 0 {
			sumPred += p
			if p > maxPred {
				maxPred = p
			}
			unpredicted--
		}
	}
	a.mu.Lock()
	samples, frac := a.samples, a.occFrac
	a.mu.Unlock()
	if samples < adaptiveWarmup && unpredicted > 0 {
		d := a.fallback.Decide(lanes, nil)
		d.Reason = ReasonColdStart
		return d
	}
	est := float64(unpredicted) * frac
	if maxPred > 0 {
		est += float64(sumPred) / float64(maxPred)
	}
	if est >= a.crossover {
		return Decision{Lockstep: true, Reason: ReasonOccHigh, EstOccupancy: est}
	}
	return Decision{Reason: ReasonOccLow, EstOccupancy: est}
}

// ObserveOccupancy folds one executed batch into the EWMA.
func (a *AdaptiveSched) ObserveOccupancy(lanes, batchSteps, laneStepsSum int) {
	if lanes < 2 || batchSteps <= 0 || laneStepsSum <= 0 {
		return
	}
	sample := float64(laneStepsSum) / float64(batchSteps) / float64(lanes)
	a.mu.Lock()
	if a.samples == 0 {
		a.occFrac = sample
	} else {
		a.occFrac += adaptiveEWMAWeight * (sample - a.occFrac)
	}
	a.samples++
	a.mu.Unlock()
}

// Stats exposes the controller state (measured batches, EWMA occupancy
// fraction) for tests and the bench harness.
func (a *AdaptiveSched) Stats() (samples int, occFrac float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.samples, a.occFrac
}

// Name identifies the policy.
func (a *AdaptiveSched) Name() string {
	return fmt.Sprintf("adaptive(crossover=%.2g)", a.crossover)
}

// OrderByPredictedExit returns the lane indices 0..len(preds)-1 stably
// sorted by predicted exit step ascending, with unpredicted lanes
// (preds[i] <= 0) after every predicted one, in arrival order. This is
// the exit-aware batch-forming rule: grouping lanes predicted to retire
// together keeps lockstep occupancy high — a chunk of early-exiters
// retires as a block instead of each chunk dragging one late lane to
// the end at occupancy 1.
func OrderByPredictedExit(preds []int) []int {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := preds[order[i]], preds[order[j]]
		if pi <= 0 || pj <= 0 {
			return pi > 0 && pj <= 0 // predicted lanes before unpredicted
		}
		return pi < pj
	})
	return order
}

// DefaultExitHistoryEntries bounds a model's exit history (the model's
// memory bound is stated once, on internerEntries).
const DefaultExitHistoryEntries = 2048

// ExitHistory is the tiny bounded (image hash → observed exit step)
// memory behind exit-aware batch forming: the batcher records every
// classified request's exit step and consults the history when forming
// the next batch, so lanes predicted to retire together share a chunk.
//
// It is a typed view over coding.Memo (pixel-verified reads, two-sighting
// promotion, bounded arbitrary eviction — a collision degrades to "no
// prediction", never to another image's exit step). The observed step
// count is policy-dependent (budget, stability window), so the policy is
// part of the key. Safe for concurrent use.
type ExitHistory struct {
	*coding.Memo[exitKey, int]
}

type exitKey struct {
	hash   uint64
	policy ExitPolicy
}

// NewExitHistory returns a history bounded to maxEntries (<= 0 uses
// DefaultExitHistoryEntries) verifying against px's pixel copies.
func NewExitHistory(maxEntries int, px *coding.Interner) *ExitHistory {
	if maxEntries <= 0 {
		maxEntries = DefaultExitHistoryEntries
	}
	return &ExitHistory{coding.NewMemo[exitKey, int](maxEntries, 0, px)}
}

// Predict returns the exit step observed the last time this exact
// (image, policy) pair was classified. hash must be
// coding.HashImage(image) — the batcher hashes each request once at
// submit and reuses it here and in dedupe.
func (h *ExitHistory) Predict(hash uint64, image []float64, p ExitPolicy) (int, bool) {
	return h.Get(exitKey{hash: hash, policy: p}, image)
}

// Record notes one observed exit step for (image, policy): stored on
// the key's second sighting, updated in place afterwards.
func (h *ExitHistory) Record(hash uint64, image []float64, p ExitPolicy, steps int) {
	if steps > 0 {
		h.Memo.Record(exitKey{hash: hash, policy: p}, image, steps)
	}
}
