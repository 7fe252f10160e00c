package serve

import (
	"fmt"
	"sort"

	"burstsnn/internal/coding"
)

// This file is the serving scheduling plane: the static rule that says
// whether a formed microbatch runs lockstep through the batch simulator
// or back to back on the replica, and the exit-aware lane order. Multi-request batches run on the sequential engine unless
// the operator forces the plane (LockstepOn): the event-driven float64
// engine vectorises over output channels, which are always dense, while
// the lockstep plane vectorises over batch lanes, of which ≈2.4 of 8
// carry a spike in any event column on distinct images — measured, the
// plane loses at every width (internal/README.md "When lockstep pays").
// The choice is outcome-invariant by construction: it only picks the
// execution mode — per-request Outcomes stay pinned by the
// bit-identity/tolerance contracts either way.

// Decision reasons, the `reason` label on the steering counters
// (burstsnn_sched_decisions_total and Snapshot.SchedReasons).
const (
	// ReasonDisabled: the policy never dispatches lockstep (LockstepAuto,
	// LockstepOff).
	ReasonDisabled = "disabled"
	// ReasonBelowMin: fewer live requests than the static threshold.
	ReasonBelowMin = "below-min"
	// ReasonStaticMin: the static request-count rule fired (LockstepOn
	// uses the rule with threshold 2, so forced-on batches land here).
	ReasonStaticMin = "static-min"
)

// Decision is the rule's verdict for one formed microbatch.
type Decision struct {
	// Lockstep selects the batch simulator; false runs the requests back
	// to back on the replica.
	Lockstep bool
	// Reason names why (the Reason* constants), for the steering
	// counters and the selftest decision trace.
	Reason string
}

// StaticSched is the fixed request-count rule: batches of at least min
// live requests run lockstep, smaller ones run sequentially. min <= 0
// never dispatches lockstep (LockstepAuto, LockstepOff); min 1 is
// normalized to 2 (a single request has nothing to lockstep with).
// Immutable, so safe for concurrent use.
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

// Decide applies the request-count rule to a microbatch of lanes live
// (deduped) requests.
func (s *StaticSched) Decide(lanes int) Decision {
	switch {
	case s.min <= 0:
		return Decision{Reason: ReasonDisabled}
	case lanes >= s.min:
		return Decision{Lockstep: true, Reason: ReasonStaticMin}
	default:
		return Decision{Reason: ReasonBelowMin}
	}
}

// Name identifies the policy in /metrics and bench output.
func (s *StaticSched) Name() string {
	if s.min <= 0 {
		return "sequential"
	}
	return fmt.Sprintf("static(min=%d)", s.min)
}

// OrderByPredictedExit returns the lane indices 0..len(preds)-1 stably
// sorted by predicted exit step ascending, with unpredicted lanes
// (preds[i] <= 0) after every predicted one, in arrival order. This is
// the exit-aware batch-forming rule. On the sequential route it is
// shortest-predicted-job-first inside a batch, which minimises the
// batch's mean wait; on the lockstep plane grouping lanes predicted to
// retire together keeps occupancy high — a chunk of early-exiters
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
