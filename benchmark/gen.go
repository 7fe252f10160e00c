package main

import (
	"math/bits"

	"burstsnn/internal/dataset"
)

// traffic is the seeded request generator. Request i of a run is a pure
// function of (seed, i): the program under test sees only the images it
// yields, never the seed or the workload name.
type traffic struct {
	base   []dataset.Sample
	unique bool
}

// newTraffic draws n labelled images (n a multiple of the 10 classes,
// class-balanced) from dataset.SynthTextures with the run's seed.
func newTraffic(seed uint64, n int, unique bool) *traffic {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass, cfg.Seed = 0, n/classes, seed
	return &traffic{base: dataset.SynthTextures(cfg).Test, unique: unique}
}

// stampPixel is the one pixel unique traffic overwrites: the top-left
// red value, which no texture family keys its class on.
const stampPixel = 0

// request returns request i's image and label. Replay traffic cycles the
// set and returns the stored image itself. Unique traffic copies
// base[i mod n] into scratch and stamps one pixel with the cycle number's
// bit-reversal (the van der Corput sequence: distinct, exactly
// representable values spread over (0,1)), so no two requests of a run
// share pixel contents while every label stays valid. scratch must hold
// one image and is the caller's until its reply arrives.
func (t *traffic) request(i uint64, scratch []float64) ([]float64, int) {
	n := uint64(len(t.base))
	s := t.base[i%n]
	if !t.unique {
		return s.Image, s.Label
	}
	copy(scratch, s.Image)
	cycle := uint32(i/n) + 1
	scratch[stampPixel] = float64(bits.Reverse32(cycle)) / (1 << 32)
	return scratch, s.Label
}

// inputSize is the flattened image length the generator yields.
func (t *traffic) inputSize() int { return len(t.base[0].Image) }
