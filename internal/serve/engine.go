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
	var times obs.StageTimes
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

// ClassifyBatch classifies images[i] under policies[i] with Classify,
// one image after another on net, and returns the outcomes plus the
// largest step count among them (the slowest image's). It panics when
// the counts of images and policies differ. It stays because the frozen
// benchmark names it; the caller owns net for the duration of the call,
// like Classify.
func ClassifyBatch(net *snn.Network, images [][]float64, policies []ExitPolicy) ([]Outcome, int) {
	if len(policies) != len(images) {
		panic(fmt.Sprintf("serve: %d policies for %d images", len(policies), len(images)))
	}
	outs := make([]Outcome, len(images))
	steps := 0
	for i, img := range images {
		outs[i] = Classify(net, img, policies[i])
		steps = max(steps, outs[i].Steps)
	}
	return outs, steps
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
