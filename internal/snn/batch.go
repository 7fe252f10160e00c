package snn

// Batched lockstep simulation: a BatchNetwork32 (batch32.go) steps up to
// B images through one set of weights and scatter tables at once. All
// neuron state is B-striped — lane-major within a neuron — and the event
// stream between layers is column-form (coding.BatchEvents32): the spikes
// of one step grouped by neuron index, with the lanes in which that
// neuron spiked attached to the column.
//
// The payoff is amortization, not parallelism: a layer consuming a column
// resolves the scatter-table taps and loads each weight row once, then
// applies it to every lane in the column as one contiguous float32 stripe.
//
// Correctness is defined per lane against a sequential Network presented
// with the same image: identical predictions, spike counts and early-exit
// steps, readout potentials within float32 accumulation tolerance (the
// numerics contract in batch32.go). The layout, ordering and retirement
// invariants that make a lane's trajectory independent of its batchmates
// are stated on the code that implements them: batchPopulation32
// (striping, conv storage permutation), emitMasked (column order) and
// BatchNetwork32.Retire (lane compaction).

// MaxBatchLanes is the lane-capacity ceiling of a BatchNetwork32: the
// firing pass tracks fired lanes in a uint64 bitmask per cell. Callers
// batching more requests than this run them in chunks (the serving
// Batcher does).
const MaxBatchLanes = 64

// BatchStepStats reports one lockstep step; the slices are indexed by
// slot, valid until the next Step, and must not be mutated.
type BatchStepStats struct {
	// InputEvents and HiddenSpikes count the step's events per slot.
	InputEvents  []int
	HiddenSpikes []int
}
