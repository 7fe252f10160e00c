// Quickstart: train a small CNN on the synthetic digit dataset, convert
// it to a spiking network with the paper's phase-burst hybrid coding, and
// compare SNN inference against the source DNN.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"burstsnn"
)

func main() {
	// 1. Data: a deterministic MNIST stand-in (synthetic because no
	// dataset ships in the repo).
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 100, TestPerClass: 20, Noise: 0.05, Seed: 7,
	})
	fmt.Printf("dataset: %s, %d train / %d test images\n", set.Name, len(set.Train), len(set.Test))

	// 2. Train the analog baseline.
	net, err := burstsnn.BuildDNN(burstsnn.LeNetMini(1, 28, 28, 10), burstsnn.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	burstsnn.Train(net, set, burstsnn.NewAdam(0.002), burstsnn.TrainConfig{
		Epochs: 2, BatchSize: 32, Seed: 2, Log: os.Stdout,
	})
	dnnAcc := burstsnn.EvaluateDNN(net, set.Test)
	fmt.Printf("DNN test accuracy: %.4f\n\n", dnnAcc)

	// 3. Convert and evaluate under the paper's headline configuration:
	// phase coding in the input layer, burst coding in hidden layers.
	res, err := burstsnn.Evaluate(net, set, burstsnn.EvalConfig{
		Hybrid:    burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst),
		Steps:     96,
		MaxImages: 60,
	})
	if err != nil {
		log.Fatal(err)
	}

	best, at := res.BestAccuracy()
	fmt.Printf("SNN (%s):\n", res.Notation)
	fmt.Printf("  best accuracy     : %.4f (first reached at step %d of %d)\n", best, at, res.Steps)
	fmt.Printf("  final accuracy    : %.4f\n", res.FinalAccuracy())
	fmt.Printf("  spikes per image  : %.0f\n", res.SpikesPerImage)
	fmt.Printf("  spiking density   : %.4f\n", res.Density())
	fmt.Printf("  neurons           : %d\n", res.Neurons)

	// 4. The same metric the paper's Fig. 4 plots: accuracy vs time.
	fmt.Println("\naccuracy curve (every 12 steps):")
	for t := 11; t < len(res.AccuracyAt); t += 12 {
		fmt.Printf("  step %3d: %.4f\n", t+1, res.AccuracyAt[t])
	}
}
