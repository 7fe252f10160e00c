// Package obs is the serving observability plane: low-overhead,
// always-on telemetry primitives threaded through internal/serve.
//
// Three pieces, each independently usable:
//
//   - Histogram: fixed-bucket log-scale histograms with atomic buckets —
//     zero allocations and no locks on the record path, mergeable across
//     shards because every histogram of a layout shares the same bucket
//     bounds, and cheap to scrape (a scrape reads counters, it never
//     sorts a reservoir);
//   - Trace / Ring: per-request stage spans (queue wait, batch
//     formation, encode, simulate, readout) recorded into a lock-striped
//     ring of recent traces, with over-threshold traces pinned in a
//     bounded slowest-retained set so a tail spike survives ring
//     turnover until it is scraped;
//   - prom.go: Prometheus text-format (0.0.4) exposition helpers plus a
//     strict parser (ValidatePromText) used by both the golden tests and
//     the snnserve selftest to reject unparseable output.
//
// The stage taxonomy is the contract between the engine, the batcher,
// and every consumer (JSON /metrics, Prometheus exposition, /v1/trace):
//
//	queue    — admission + queue wait: Submit enqueue → batch execution
//	           start (includes replica-checkout wait; Form ⊂ Queue)
//	form     — batch formation: dispatcher received the batch's first
//	           request → dispatch (the max-delay collection window)
//	encode   — encoder Reset (input quantization, per-image state)
//	simulate — the step loop, excluding readout
//	readout  — readout margin / potentials extraction at exit tests
//	total    — end-to-end wall clock as observed by the server
//
// Overhead is a design constraint: recording one request is a handful of
// atomic adds and clock reads (BenchmarkObserveStages in internal/serve
// pins it), and serve.Classify's zero-allocation invariant is unchanged.
package obs

import "time"

// Stage indexes the per-request span taxonomy. The numeric values are a
// stable dense index (histogram arrays are indexed by Stage).
type Stage int

// The stage taxonomy, in request order. NumStages bounds arrays indexed
// by Stage.
const (
	StageQueue Stage = iota
	StageForm
	StageEncode
	StageSimulate
	StageReadout
	StageTotal
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "form", "encode", "simulate", "readout", "total",
}

// String returns the stage's exposition name (the `stage` label value in
// Prometheus output and the key in the JSON stage map).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageTimes is one request's stage breakdown as measured by the serving
// pipeline. The engine fills Encode/Simulate/Readout; the batcher adds
// Queue/Form; the server derives Total from its own clock. Queue
// includes the formation window, the replica-checkout wait and, for a
// request run back to back with its batchmates, the simulations ahead of
// its own, so Form ⊂ Queue and the spans are not disjoint — they answer
// "where did the time go" per stage, not "sum to total".
type StageTimes struct {
	Queue    time.Duration
	Form     time.Duration
	Encode   time.Duration
	Simulate time.Duration
	Readout  time.Duration
}
