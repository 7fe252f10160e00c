package serve

import (
	"fmt"
	"time"

	"burstsnn/internal/obs"
	"burstsnn/internal/snn"
)

// ExitPolicy controls the early-exit engine. The paper's Fig. 3/4 point
// is that burst/hybrid codings reach their final accuracy in far fewer
// time steps than the simulation budget; online serving cashes that in by
// stopping the simulator as soon as the readout has settled instead of
// always paying the full budget.
type ExitPolicy struct {
	// MaxSteps is the per-request simulation budget (required).
	MaxSteps int `json:"maxSteps"`
	// MinSteps is the earliest step at which exit is allowed, typically a
	// couple of coding periods so periodic encoders deliver the whole
	// input at least once. 0 means no lower bound beyond StableWindow.
	MinSteps int `json:"minSteps"`
	// StableWindow is how many consecutive steps the top-1 prediction
	// must stay unchanged before exiting. 0 disables early exit (the
	// engine always runs the full budget).
	StableWindow int `json:"stableWindow"`
	// Margin additionally requires the mean per-step readout gap between
	// the top-1 and top-2 classes to reach this value (readout potentials
	// grow linearly with time, so the gap is normalized by the step
	// count). 0 disables the margin test.
	Margin float64 `json:"margin,omitempty"`
}

// Validate checks the policy.
func (p ExitPolicy) Validate() error {
	if p.MaxSteps <= 0 {
		return fmt.Errorf("serve: MaxSteps must be positive, got %d", p.MaxSteps)
	}
	if p.MinSteps < 0 || p.StableWindow < 0 || p.Margin < 0 {
		return fmt.Errorf("serve: negative exit-policy field")
	}
	if p.MinSteps > p.MaxSteps {
		return fmt.Errorf("serve: MinSteps %d exceeds MaxSteps %d", p.MinSteps, p.MaxSteps)
	}
	return nil
}

// Outcome is the transport-independent result of one classification.
type Outcome struct {
	Prediction int
	// Steps is the number of simulated time steps (== MaxSteps unless the
	// engine exited early).
	Steps     int
	EarlyExit bool
	// Margin is the mean per-step readout gap top1−top2 at exit time.
	Margin float64
	// InputSpikes and HiddenSpikes count physical spikes over the run.
	InputSpikes  int
	HiddenSpikes int
}

// TotalSpikes returns input plus hidden spikes.
func (o Outcome) TotalSpikes() int { return o.InputSpikes + o.HiddenSpikes }

// Classify presents image to net under the exit policy and returns the
// outcome. The caller owns net for the duration of the call (replica
// pools enforce this); the simulator is fully deterministic, so the same
// image and policy always produce the same outcome on any replica.
func Classify(net *snn.Network, image []float64, p ExitPolicy) Outcome {
	o, _ := ClassifyStaged(net, image, p)
	return o
}

// ClassifyStaged is Classify with the engine-side stage spans measured:
// Encode (the encoder Reset), Simulate (the step loop), and Readout (the
// readout margin extractions at exit tests), per the internal/obs
// taxonomy. The timing is a handful of monotonic clock reads per request
// — no allocations (the zero-alloc gate covers this path, which Classify
// shares) and no effect on the outcome.
func ClassifyStaged(net *snn.Network, image []float64, p ExitPolicy) (Outcome, obs.StageTimes) {
	times := obs.StageTimes{Lanes: 1}
	begin := time.Now()
	net.Reset(image)
	simStart := time.Now()
	times.Encode = simStart.Sub(begin)
	countInput := net.Encoder.CountsAsSpikes()
	var o Outcome
	var readout time.Duration
	stable, last := 0, -1
	for t := 0; t < p.MaxSteps; t++ {
		st := net.Step(t)
		if countInput {
			o.InputSpikes += st.InputEvents
		}
		o.HiddenSpikes += st.HiddenSpikes
		o.Steps = t + 1
		o.Prediction = st.Predicted
		if st.Predicted == last {
			stable++
		} else {
			stable, last = 1, st.Predicted
		}
		if p.StableWindow > 0 && o.Steps >= p.MinSteps && stable >= p.StableWindow {
			mt := time.Now()
			m := stepMargin(net.Output.Potentials(), o.Steps)
			readout += time.Since(mt)
			if p.Margin <= 0 || m >= p.Margin {
				o.Margin = m
				o.EarlyExit = o.Steps < p.MaxSteps
				times.Simulate = time.Since(simStart) - readout
				times.Readout = readout
				return o, times
			}
		}
	}
	mt := time.Now()
	o.Margin = stepMargin(net.Output.Potentials(), o.Steps)
	readout += time.Since(mt)
	times.Simulate = time.Since(simStart) - readout
	times.Readout = readout
	return o, times
}

// ClassifyBatch presents a batch of images lockstep through the batch
// simulator under per-lane exit policies and returns one Outcome per
// image, plus the number of lockstep steps the batch ran (the slowest
// lane's step count — used for the steps-saved gauge).
//
// Every outcome matches Classify(net, images[i], policies[i]) on the
// sequential simulator the batch network was built from under the
// float32 tolerance contract: the lockstep state is per-lane disjoint,
// the early-exit test below mirrors Classify's step for step, and a lane
// that exits is retired from the batch immediately (physical
// compaction), exactly as the sequential engine stops simulating — so
// predictions, spike counts, and early-exit steps are identical on the
// equivalence corpus, margins within float32 accumulation tolerance (see
// internal/README.md). The caller owns bn for the duration of the call,
// like Classify.
//
// Unlike Classify (zero-alloc in steady state), ClassifyBatch allocates
// its per-batch bookkeeping (outcomes, trackers, score scratch) — a
// handful of allocations per dispatched batch, not per request, which is
// in line with the batcher's own per-request queueing allocations.
func ClassifyBatch(bn *snn.BatchNetwork32, images [][]float64, policies []ExitPolicy) ([]Outcome, int) {
	outs, steps, _ := ClassifyBatchStaged(bn, images, policies)
	return outs, steps
}

// ClassifyBatchStaged is ClassifyBatch with the engine-side stage spans
// measured, like ClassifyStaged: Encode is the batched encoder Reset,
// Simulate the lockstep step loop, Readout the accumulated per-lane
// margin extractions. The spans are batch-level — every lane shared
// them — so the returned StageTimes carries Lanes = len(images) and
// Lockstep = true for per-request attribution.
func ClassifyBatchStaged(bn *snn.BatchNetwork32, images [][]float64, policies []ExitPolicy) ([]Outcome, int, obs.StageTimes) {
	n := len(images)
	if n == 0 {
		return nil, 0, obs.StageTimes{}
	}
	if len(policies) != n {
		panic(fmt.Sprintf("serve: %d policies for %d images", len(policies), n))
	}
	times := obs.StageTimes{Lanes: n, Lockstep: true}
	begin := time.Now()
	bn.Reset(images)
	simStart := time.Now()
	times.Encode = simStart.Sub(begin)
	var readout time.Duration
	countInput := bn.CountsInputSpikes()
	outs := make([]Outcome, n)
	type tracker struct{ stable, last int }
	tracks := make([]tracker, n)
	for lane := range tracks {
		tracks[lane].last = -1
	}
	scores := make([]float64, bn.Classes())
	preds := make([]int, n)
	var retire []int
	// Lanes with a non-positive budget never step, exactly like
	// Classify's zero-iteration loop: retire them (descending) before the
	// first lockstep step, leaving their zero-value Outcomes.
	for slot := bn.NumActive() - 1; slot >= 0; slot-- {
		if policies[bn.LaneID(slot)].MaxSteps <= 0 {
			bn.Retire(slot)
		}
	}
	batchSteps := 0
	for t := 0; bn.NumActive() > 0; t++ {
		st := bn.Step(t)
		batchSteps = t + 1
		retire = retire[:0]
		// One lane-major sweep for the whole batch's argmax (identical
		// per slot to bn.Predicted) instead of a strided walk per slot.
		stepPreds := bn.PredictedAll(preds)
		for slot := 0; slot < bn.NumActive(); slot++ {
			lane := bn.LaneID(slot)
			o, p, tr := &outs[lane], &policies[lane], &tracks[lane]
			if countInput {
				o.InputSpikes += st.InputEvents[slot]
			}
			o.HiddenSpikes += st.HiddenSpikes[slot]
			o.Steps = t + 1
			pred := stepPreds[slot]
			o.Prediction = pred
			if pred == tr.last {
				tr.stable++
			} else {
				tr.stable, tr.last = 1, pred
			}
			exit := false
			if p.StableWindow > 0 && o.Steps >= p.MinSteps && tr.stable >= p.StableWindow {
				mt := time.Now()
				m := stepMargin(bn.PotentialsInto(slot, scores), o.Steps)
				readout += time.Since(mt)
				if p.Margin <= 0 || m >= p.Margin {
					o.Margin = m
					o.EarlyExit = o.Steps < p.MaxSteps
					exit = true
				}
			}
			if !exit && o.Steps >= p.MaxSteps {
				mt := time.Now()
				o.Margin = stepMargin(bn.PotentialsInto(slot, scores), o.Steps)
				readout += time.Since(mt)
				exit = true
			}
			if exit {
				retire = append(retire, slot)
			}
		}
		// Retire in descending slot order: compaction moves the current
		// last slot into the freed one, and every slot above the one being
		// retired has already been handled (or retired) this step.
		for i := len(retire) - 1; i >= 0; i-- {
			bn.Retire(retire[i])
		}
	}
	times.Simulate = time.Since(simStart) - readout
	times.Readout = readout
	return outs, batchSteps, times
}

// stepMargin returns (top1 − top2) / steps of the readout potentials:
// accumulated potentials track the DNN logits times the step count, so
// dividing by steps yields a time-invariant confidence gap.
func stepMargin(pot []float64, steps int) float64 {
	if len(pot) < 2 || steps <= 0 {
		return 0
	}
	top1, top2 := pot[0], pot[1]
	if top2 > top1 {
		top1, top2 = top2, top1
	}
	for _, v := range pot[2:] {
		if v > top1 {
			top1, top2 = v, top1
		} else if v > top2 {
			top2 = v
		}
	}
	return (top1 - top2) / float64(steps)
}
