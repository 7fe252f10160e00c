package coding

import (
	"fmt"

	"burstsnn/internal/mathx"
)

// BatchEncoder is the batched counterpart of InputEncoder: it holds up to
// B images (one per lane slot) and emits their per-step events as a
// single column stream. Slots [0, lanes) are active; the batched network
// physically compacts lanes, so a retired slot's state is overwritten by
// Retire and never stepped again.
type BatchEncoder interface {
	// Size returns the number of input neurons.
	Size() int
	// Lanes returns the lane capacity B.
	Lanes() int
	// CountsAsSpikes mirrors InputEncoder.CountsAsSpikes.
	CountsAsSpikes() bool
	// BiasScale mirrors InputEncoder.BiasScale (it depends only on the
	// scheme and t, never on the images, so one value serves every lane).
	BiasScale(t int) float64
	// SetLane loads an image into a lane slot, equivalent to Reset on a
	// sequential encoder.
	SetLane(lane int, image []float64)
	// Step32 appends the events of time t for slots [0, lanes) into out
	// (which is Reset first), payloads emitted as float32.
	Step32(t int, lanes int, out *BatchEvents32)
	// Retire copies slot src's encoder state over slot dst (lane
	// compaction after an early exit).
	Retire(dst, src int)
}

// BatchableEncoder is an InputEncoder that can stamp out a batched
// variant of itself with the same configuration (size, period, seed).
// All encoders built by NewInputEncoder implement it; stream-stateful
// encoders like PoissonEncoder do not, because their lanes could not
// reproduce the sequential trains.
type BatchableEncoder interface {
	InputEncoder
	// NewBatch returns a batched encoder with b lane slots.
	NewBatch(b int) BatchEncoder
}

func checkLaneImage(size, b, lane int, image []float64) {
	if lane < 0 || lane >= b {
		panic(fmt.Sprintf("coding: lane %d out of range [0,%d)", lane, b))
	}
	if len(image) != size {
		panic(fmt.Sprintf("coding: batch encoder got %d pixels, want %d", len(image), size))
	}
}

// batchRealEncoder is the batched real (analog-current) encoder: pixel
// values are stored lane-striped and every nonzero pixel emits its value
// as payload each step.
type batchRealEncoder struct {
	size, b int
	px      []float64 // px[i*b+lane]
}

func newBatchRealEncoder(size, b int) *batchRealEncoder {
	return &batchRealEncoder{size: size, b: b, px: make([]float64, size*b)}
}

func (e *batchRealEncoder) Size() int             { return e.size }
func (e *batchRealEncoder) Lanes() int            { return e.b }
func (e *batchRealEncoder) CountsAsSpikes() bool  { return false }
func (e *batchRealEncoder) BiasScale(int) float64 { return 1 }

func (e *batchRealEncoder) SetLane(lane int, image []float64) {
	checkLaneImage(e.size, e.b, lane, image)
	for i, v := range image {
		e.px[i*e.b+lane] = v
	}
}

func (e *batchRealEncoder) Retire(dst, src int) {
	for i := 0; i < e.size; i++ {
		e.px[i*e.b+dst] = e.px[i*e.b+src]
	}
}

// batchRateEncoder is the batched Bernoulli rate encoder. Each lane owns
// an RNG reseeded from fnv1aImage of its image exactly like the
// sequential encoder, and Step consumes each lane's draws in pixel
// order, so every lane's train is bit-identical to the train the
// sequential encoder produces for the same image.
type batchRateEncoder struct {
	size, b int
	seed    uint64
	px      []float64
	rngs    []mathx.RNG // inline states, so Retire copies by assignment
}

func newBatchRateEncoder(size, b int, seed uint64) *batchRateEncoder {
	return &batchRateEncoder{
		size: size, b: b, seed: seed,
		px:   make([]float64, size*b),
		rngs: make([]mathx.RNG, b),
	}
}

func (e *batchRateEncoder) Size() int             { return e.size }
func (e *batchRateEncoder) Lanes() int            { return e.b }
func (e *batchRateEncoder) CountsAsSpikes() bool  { return true }
func (e *batchRateEncoder) BiasScale(int) float64 { return 1 }

func (e *batchRateEncoder) SetLane(lane int, image []float64) {
	checkLaneImage(e.size, e.b, lane, image)
	for i, v := range image {
		e.px[i*e.b+lane] = v
	}
	e.rngs[lane].Reseed(fnv1aImage(image) ^ e.seed)
}

func (e *batchRateEncoder) Retire(dst, src int) {
	for i := 0; i < e.size; i++ {
		e.px[i*e.b+dst] = e.px[i*e.b+src]
	}
	e.rngs[dst] = e.rngs[src]
}

// batchPhaseEncoder is the batched weighted-spike encoder: the quantized
// bit patterns are lane-striped and one period carries each lane's whole
// value, with the per-step payload Π(t) shared by every lane in a column.
type batchPhaseEncoder struct {
	size, b, period int
	bits            []uint64 // bits[i*b+lane]
	scratch         []uint64 // one lane's quantization, before striping
}

func newBatchPhaseEncoder(size, b, period int) *batchPhaseEncoder {
	return &batchPhaseEncoder{
		size: size, b: b, period: period,
		bits:    make([]uint64, size*b),
		scratch: make([]uint64, size),
	}
}

func (e *batchPhaseEncoder) Size() int            { return e.size }
func (e *batchPhaseEncoder) Lanes() int           { return e.b }
func (e *batchPhaseEncoder) CountsAsSpikes() bool { return true }
func (e *batchPhaseEncoder) BiasScale(t int) float64 {
	return phaseBiasScale(t, e.period)
}

func (e *batchPhaseEncoder) SetLane(lane int, image []float64) {
	checkLaneImage(e.size, e.b, lane, image)
	quantizeBits(e.scratch, image, e.period)
	for i, b := range e.scratch {
		e.bits[i*e.b+lane] = b
	}
}

func (e *batchPhaseEncoder) Retire(dst, src int) {
	for i := 0; i < e.size; i++ {
		e.bits[i*e.b+dst] = e.bits[i*e.b+src]
	}
}

// batchTTFSEncoder is the batched time-to-first-spike encoder: per-lane
// firing phases are lane-striped; a pixel's lane entry is phase+1 with 0
// meaning silent (the sequential encoder's packing, see quantizePhases).
type batchTTFSEncoder struct {
	size, b, period int
	phase           []uint64 // phase[i*b+lane]; value = firing phase + 1, 0 = silent
	scratch         []uint64
}

func newBatchTTFSEncoder(size, b, period int) *batchTTFSEncoder {
	return &batchTTFSEncoder{
		size: size, b: b, period: period,
		phase:   make([]uint64, size*b),
		scratch: make([]uint64, size),
	}
}

func (e *batchTTFSEncoder) Size() int            { return e.size }
func (e *batchTTFSEncoder) Lanes() int           { return e.b }
func (e *batchTTFSEncoder) CountsAsSpikes() bool { return true }
func (e *batchTTFSEncoder) BiasScale(t int) float64 {
	return phaseBiasScale(t, e.period)
}

func (e *batchTTFSEncoder) SetLane(lane int, image []float64) {
	checkLaneImage(e.size, e.b, lane, image)
	quantizePhases(e.scratch, image, e.period)
	for i, p := range e.scratch {
		e.phase[i*e.b+lane] = p
	}
}

func (e *batchTTFSEncoder) Retire(dst, src int) {
	for i := 0; i < e.size; i++ {
		e.phase[i*e.b+dst] = e.phase[i*e.b+src]
	}
}
