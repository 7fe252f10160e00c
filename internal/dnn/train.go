package dnn

import (
	"fmt"
	"io"

	"burstsnn/internal/dataset"
	"burstsnn/internal/mathx"
)

// TrainConfig controls the training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Seed      uint64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
	TestAcc  float64
}

// Train fits net on set.Train with the given optimizer and reports per-
// epoch statistics. Gradients are accumulated per mini-batch and averaged.
// One workspace serves the whole run, the per-epoch test scoring too.
func Train(net *Network, set *dataset.Set, opt Optimizer, cfg TrainConfig) []EpochStats {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	r := mathx.NewRNG(cfg.Seed)
	train := make([]dataset.Sample, len(set.Train))
	copy(train, set.Train)
	ws := net.NewWorkspace()

	var stats []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		dataset.Shuffle(r, train)
		totalLoss, correct := 0.0, 0
		for _, batch := range dataset.Batches(train, cfg.BatchSize) {
			net.ZeroGrads()
			for bi, img := range batch.Images {
				logits := ws.Forward(ws.input(img), true)
				loss, grad := ws.Loss(logits, batch.Labels[bi])
				totalLoss += loss
				if mathx.ArgMax(logits.Data) == batch.Labels[bi] {
					correct++
				}
				ws.Backward(grad)
			}
			opt.Step(net.Params(), 1/float64(len(batch.Images)))
		}
		st := EpochStats{
			Epoch:    epoch,
			Loss:     totalLoss / float64(len(train)),
			TrainAcc: float64(correct) / float64(len(train)),
			TestAcc:  ws.evaluate(set.Test),
		}
		stats = append(stats, st)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  train %.4f  test %.4f\n",
				st.Epoch, st.Loss, st.TrainAcc, st.TestAcc)
		}
	}
	return stats
}

// Evaluate returns classification accuracy of net over samples, on one
// workspace for all of them.
func Evaluate(net *Network, samples []dataset.Sample) float64 {
	return net.NewWorkspace().evaluate(samples)
}
