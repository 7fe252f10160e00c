package coding

import (
	"fmt"
	"math"
	"math/bits"

	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

// Event is one spike: the flat index of the neuron that fired and the
// payload it transmits (see the package comment for payload semantics).
// The type lives in internal/kernels so the per-step scatter kernel
// walks a layer's event list without a copy.
type Event = kernels.Event

// InputEncoder turns a static input vector into a deterministic event
// stream, one call per simulation time step.
type InputEncoder interface {
	// Reset prepares the encoder for a new input image.
	Reset(image []float64)
	// Step returns the events emitted at time t. Implementations may
	// reuse the returned slice across calls.
	Step(t int) []Event
	// CountsAsSpikes reports whether the emitted events are physical
	// spikes (true for rate/phase/ttfs) or analog currents (false for
	// real coding), which the efficiency metrics must not count.
	CountsAsSpikes() bool
	// Size returns the number of input neurons.
	Size() int
	// BiasScale returns the factor by which downstream layers must scale
	// their per-step bias current at time t so biases stay commensurate
	// with the encoder's information rate. Real and rate coding deliver
	// the full input value every step (scale 1); phase and TTFS deliver
	// it once per period, so the bias is spread over the period with the
	// oscillation envelope (Σ over a period = 1). Without this, biases
	// are over-weighted k-fold under phase input and the readout drifts.
	BiasScale(t int) float64
}

// CloneableEncoder is an InputEncoder that can stamp out an independent
// copy of itself: same configuration (size, period, seed), fresh
// per-image state. Serving replica pools use this to share one converted
// network's weights across concurrent simulator instances. All encoders
// built by NewInputEncoder implement it.
type CloneableEncoder interface {
	InputEncoder
	// Clone returns an independent encoder equivalent to this one before
	// any Reset call.
	Clone() InputEncoder
}

// NewInputEncoder constructs the encoder for a scheme. Size is the input
// dimensionality. seed only matters for stochastic encoders (Poisson rate
// variant); the default encoders are deterministic.
func NewInputEncoder(cfg Config, size int, seed uint64) (InputEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Scheme {
	case Real:
		return newRealEncoder(size), nil
	case Rate:
		return newRateEncoder(size, seed), nil
	case Phase:
		return newPhaseEncoder(size, cfg.Period), nil
	case TTFS:
		return newTTFSEncoder(size, cfg.Period), nil
	case Burst:
		// The paper never uses burst as an input coding (the input is
		// static, so adaptivity buys nothing); reject it explicitly.
		return nil, fmt.Errorf("coding: burst is a hidden-layer coding, not an input coding")
	default:
		return nil, fmt.Errorf("coding: no input encoder for scheme %v", cfg.Scheme)
	}
}

// realEncoder transmits the analog pixel value as a constant input
// current every time step ("real coding" of Rueckauer et al.). Fast and
// exact, but the events are not spikes.
//
// Every encoder pre-sizes its event buffer to the input size — the
// per-step high-watermark (each pixel emits at most one event per step) —
// so Reset and Step never allocate in steady state; serving's zero-alloc
// Classify invariant depends on this (see internal/README.md).
type realEncoder struct {
	size  int
	image []float64
	buf   []Event
}

func newRealEncoder(size int) *realEncoder {
	return &realEncoder{size: size, buf: make([]Event, 0, size)}
}

func (e *realEncoder) Reset(image []float64) {
	if len(image) != e.size {
		panic(fmt.Sprintf("coding: real encoder got %d pixels, want %d", len(image), e.size))
	}
	e.image = image
	e.buf = e.buf[:0]
	for i, v := range image {
		if v != 0 {
			e.buf = append(e.buf, Event{Index: i, Payload: v})
		}
	}
}

func (e *realEncoder) Step(int) []Event      { return e.buf }
func (e *realEncoder) CountsAsSpikes() bool  { return false }
func (e *realEncoder) Size() int             { return e.size }
func (e *realEncoder) BiasScale(int) float64 { return 1 }
func (e *realEncoder) Clone() InputEncoder   { return newRealEncoder(e.size) }

// NewBatch implements BatchableEncoder.
func (e *realEncoder) NewBatch(b int) BatchEncoder { return newBatchRealEncoder(e.size, b) }

// rateEncoder emits unit-payload spikes whose frequency equals the pixel
// value: each pixel fires with Bernoulli probability v per step, the
// Poisson-like input of the rate-coding conversion literature (Diehl et
// al. 2015). Estimating a value v to k-bit precision from such a train
// needs on the order of 2^k observations — the paper's argument for why
// rate input converges slowly.
//
// The stream is reproducible without being order-dependent: the RNG is
// reseeded at every Reset from fnv1aImage of the image contents, so the
// same image always produces the same train regardless of evaluation
// order or worker partitioning.
type rateEncoder struct {
	size int
	seed uint64

	image []float64
	rng   mathx.RNG // inline so per-image reseeding does not allocate
	buf   []Event
}

func newRateEncoder(size int, seed uint64) *rateEncoder {
	return &rateEncoder{size: size, seed: seed, buf: make([]Event, 0, size)}
}

func (e *rateEncoder) Reset(image []float64) {
	if len(image) != e.size {
		panic(fmt.Sprintf("coding: rate encoder got %d pixels, want %d", len(image), e.size))
	}
	e.image = image
	e.rng.Reseed(fnv1aImage(image) ^ e.seed)
}

// fnv1aImage is byte-at-a-time FNV-1a over the pixel bit patterns: the
// rate encoders' reseed, so identical images always produce identical
// trains. It is not HashImage and must not become it — every rate-coded
// spike train (Tables 1 and 2's rate rows) is drawn from this value.
func fnv1aImage(image []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range image {
		bits := math.Float64bits(v)
		for shift := 0; shift < 64; shift += 8 {
			h ^= bits >> shift & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// HashImage is the content key of an image: the quantization-cache and
// interner key, the serving batcher's duplicate-request, exit-history and
// response-cache key, and the fleet's routing key. It reads each pixel's
// bit pattern as one word into four independent xor-rotate-multiply
// lanes, folds the lanes and the length, and finalizes through
// mathx.SplitMix64. Every step is a bijection of the changed word, so
// images differing in one pixel never collide. It is fast, not
// collision-resistant — callers that act on a match must verify pixel
// equality with SameImage (as Memo and the batcher dedupe do).
func HashImage(image []float64) uint64 {
	h := uint64(len(image))
	// The lanes start at the first hexadecimal digits of π.
	h0, h1 := uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344)
	h2, h3 := uint64(0xa4093822299f31d0), uint64(0x082efa98ec4e6c89)
	w := image
	for ; len(w) >= 4; w = w[4:] {
		h0 = hashRound(h0, math.Float64bits(w[0]))
		h1 = hashRound(h1, math.Float64bits(w[1]))
		h2 = hashRound(h2, math.Float64bits(w[2]))
		h3 = hashRound(h3, math.Float64bits(w[3]))
	}
	for _, v := range w {
		h0 = hashRound(h0, math.Float64bits(v))
	}
	for _, lane := range [...]uint64{h0, h1, h2, h3} {
		h = hashRound(h, lane)
	}
	return mathx.SplitMix64(h)
}

// hashRound folds one word into a HashImage lane: a bijection of the word
// for a fixed lane and of the lane for a fixed word.
func hashRound(lane, word uint64) uint64 {
	// xxHash64's first prime: odd, so the multiply is invertible.
	return bits.RotateLeft64(lane^word, 31) * 0x9e3779b185ebca87
}

// SameImage reports whether two images have identical pixel bit
// patterns — the HashImage view of the pixels, so NaN payloads cannot
// defeat the check. It is the verification a HashImage match requires
// before acting on it: a collision degrades to a non-match, never to
// another image's result.
func SameImage(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (e *rateEncoder) Step(int) []Event {
	e.buf = e.buf[:0]
	for i, v := range e.image {
		if v <= 0 {
			continue
		}
		if v > 1 {
			v = 1
		}
		if e.rng.Bernoulli(v) {
			e.buf = append(e.buf, Event{Index: i, Payload: 1})
		}
	}
	return e.buf
}

func (e *rateEncoder) CountsAsSpikes() bool  { return true }
func (e *rateEncoder) Size() int             { return e.size }
func (e *rateEncoder) BiasScale(int) float64 { return 1 }
func (e *rateEncoder) Clone() InputEncoder   { return newRateEncoder(e.size, e.seed) }

// NewBatch implements BatchableEncoder.
func (e *rateEncoder) NewBatch(b int) BatchEncoder { return newBatchRateEncoder(e.size, b, e.seed) }

// quantizeBits fills dst with each pixel's period-bit quantization
// (round(clamp(v)·2^k), saturating at all-ones for v = 1.0).
func quantizeBits(dst []uint64, image []float64, period int) {
	levels := math.Pow(2, float64(period))
	for i, v := range image {
		q := uint64(math.Round(mathx.Clamp(v, 0, 1) * levels))
		if q >= uint64(levels) {
			q = uint64(levels) - 1 // value 1.0 saturates to all-ones
		}
		dst[i] = q
	}
}

// quantizedBits returns the image's quantized bit patterns, through
// cache when non-nil (see QuantCache.quantized for the aliasing contract).
func quantizedBits(image []float64, period int, cache *QuantCache, scratch []uint64) []uint64 {
	return cache.quantized(Phase, image, period, scratch, func() { quantizeBits(scratch, image, period) })
}

// quantizedPhases returns the image's TTFS firing phases packed as
// phase+1 (0 = silent), with the same cache/scratch contract as
// quantizedBits.
func quantizedPhases(image []float64, period int, cache *QuantCache, scratch []uint64) []uint64 {
	return cache.quantized(TTFS, image, period, scratch, func() {
		quantizeBits(scratch, image, period)
		for i, q := range scratch {
			if q == 0 {
				continue
			}
			// Most significant set bit determines the firing phase.
			msb := bits.Len64(q) - 1
			scratch[i] = uint64(period-1-msb) + 1
		}
	})
}

// phaseBiasScale spreads the bias over the oscillation: Π(t)/(1-2^-k)
// sums to exactly 1 over one period, matching the one-value-per-period
// input rate of the phase and TTFS encoders.
func phaseBiasScale(t, period int) float64 {
	return Pi(t, period) / (1 - math.Pow(2, -float64(period)))
}

// phaseEncoder implements the weighted-spike input of Kim et al. 2018:
// the pixel value is quantized to k bits and bit j (MSB first) is
// transmitted at phase j with payload Π(t) = 2^-(1+j). One period carries
// the whole value exactly, so a k-bit input needs only k steps.
type phaseEncoder struct {
	size   int
	period int
	// bits holds the quantized bit pattern per pixel (MSB = phase 0). It
	// aliases either the owned scratch buffer or an immutable QuantCache
	// entry and is never written outside Reset.
	bits    []uint64
	scratch []uint64
	quant   *QuantCache
	// Both Π(t) and the bit a step sends repeat with the period, so step
	// t emits exactly step t−k's events. replay[j·size:] holds phase j's
	// list, built by the first Step at that phase since Reset, and
	// replayLen[j] its length (-1 until built).
	replay    []Event
	replayLen []int
}

func newPhaseEncoder(size, period int) *phaseEncoder {
	scratch := make([]uint64, size)
	e := &phaseEncoder{
		size: size, period: period,
		bits:      scratch,
		scratch:   scratch,
		replay:    make([]Event, period*size),
		replayLen: make([]int, period),
	}
	e.forget()
	return e
}

// SetQuantCache implements QuantCached.
func (e *phaseEncoder) SetQuantCache(c *QuantCache) { e.quant = c }

func (e *phaseEncoder) Reset(image []float64) {
	if len(image) != e.size {
		panic(fmt.Sprintf("coding: phase encoder got %d pixels, want %d", len(image), e.size))
	}
	e.bits = quantizedBits(image, e.period, e.quant, e.scratch)
	e.forget()
}

// forget marks every phase's list unbuilt.
func (e *phaseEncoder) forget() {
	for j := range e.replayLen {
		e.replayLen[j] = -1
	}
}

// Step returns the phase's list, building it on the first call at that
// phase since Reset. The build sweeps the pixels without a branch on the
// pixel's bit — close to a coin flip on natural images, which a
// predictor cannot learn: every pixel writes its event at the cursor and
// only a spiking one advances it. The cursor never passes the pixel
// index, so the write stays inside the phase's size-long region even
// when every pixel spikes.
func (e *phaseEncoder) Step(t int) []Event {
	phase := t % e.period
	lo, hi := phase*e.size, (phase+1)*e.size
	buf := e.replay[lo:hi:hi]
	if n := e.replayLen[phase]; n >= 0 {
		return buf[:n]
	}
	// Bit (period-1-phase) of the quantized value, MSB transmitted first
	// (the mask is a no-op that spares the loop an oversized-shift guard).
	shift := uint(e.period-1-phase) & 63
	payload := Pi(t, e.period)
	n := 0
	for i, b := range e.bits {
		buf[n] = Event{Index: i, Payload: payload}
		n += int(b >> shift & 1)
	}
	e.replayLen[phase] = n
	return buf[:n]
}

func (e *phaseEncoder) CountsAsSpikes() bool { return true }
func (e *phaseEncoder) Size() int            { return e.size }
func (e *phaseEncoder) Clone() InputEncoder {
	c := newPhaseEncoder(e.size, e.period)
	c.quant = e.quant
	return c
}

// NewBatch implements BatchableEncoder.
func (e *phaseEncoder) NewBatch(b int) BatchEncoder {
	return newBatchPhaseEncoder(e.size, b, e.period, e.quant)
}

// BiasScale spreads the bias over the oscillation: Π(t)/(1-2^-k) sums to
// exactly 1 over one period, matching the one-value-per-period input rate.
func (e *phaseEncoder) BiasScale(t int) float64 {
	return phaseBiasScale(t, e.period)
}

// ttfsEncoder is the time-to-first-spike extension: each pixel emits a
// single spike per period at the phase of its most significant set bit,
// i.e. stronger inputs fire earlier and carry exponentially larger
// payloads. It transmits log2 precision with one spike — cheaper but
// coarser than phase coding.
type ttfsEncoder struct {
	size   int
	period int
	// phase holds each pixel's firing phase packed as phase+1, 0 for
	// silent (the QuantCache representation); it aliases the scratch
	// buffer or an immutable cache entry, like phaseEncoder.bits.
	phase   []uint64
	scratch []uint64
	quant   *QuantCache
	buf     []Event
}

func newTTFSEncoder(size, period int) *ttfsEncoder {
	scratch := make([]uint64, size)
	return &ttfsEncoder{
		size: size, period: period,
		phase:   scratch,
		scratch: scratch,
		buf:     make([]Event, size),
	}
}

// SetQuantCache implements QuantCached.
func (e *ttfsEncoder) SetQuantCache(c *QuantCache) { e.quant = c }

func (e *ttfsEncoder) Reset(image []float64) {
	if len(image) != e.size {
		panic(fmt.Sprintf("coding: ttfs encoder got %d pixels, want %d", len(image), e.size))
	}
	e.phase = quantizedPhases(image, e.period, e.quant, e.scratch)
}

// Step is branch-free on the pixel's phase, like phaseEncoder.Step.
func (e *ttfsEncoder) Step(t int) []Event {
	buf := e.buf
	want := uint64(t%e.period) + 1
	payload := Pi(t, e.period)
	n := 0
	for i, p := range e.phase {
		buf[n] = Event{Index: i, Payload: payload}
		// 1 when p == want: p^want is zero only then, and x-1 borrows
		// into bit 63 only from zero (phases are far below 2^63).
		n += int(((p ^ want) - 1) >> 63)
	}
	return buf[:n]
}

func (e *ttfsEncoder) CountsAsSpikes() bool { return true }
func (e *ttfsEncoder) Size() int            { return e.size }
func (e *ttfsEncoder) Clone() InputEncoder {
	c := newTTFSEncoder(e.size, e.period)
	c.quant = e.quant
	return c
}

// NewBatch implements BatchableEncoder.
func (e *ttfsEncoder) NewBatch(b int) BatchEncoder {
	return newBatchTTFSEncoder(e.size, b, e.period, e.quant)
}

// BiasScale matches the phase encoder: one value per period.
func (e *ttfsEncoder) BiasScale(t int) float64 {
	return phaseBiasScale(t, e.period)
}

// PoissonEncoder is a stream-stateful rate encoder: unlike the default
// rate encoder it does NOT reseed per image, so successive presentations
// of the same image yield different trains. Useful for studying trial
// variability; the default encoder is preferred for reproducible
// benchmarks.
type PoissonEncoder struct {
	SizeN int
	RNG   *mathx.RNG

	image []float64
	buf   []Event
}

// Reset implements InputEncoder.
func (e *PoissonEncoder) Reset(image []float64) {
	if len(image) != e.SizeN {
		panic(fmt.Sprintf("coding: poisson encoder got %d pixels, want %d", len(image), e.SizeN))
	}
	e.image = image
}

// Step implements InputEncoder.
func (e *PoissonEncoder) Step(int) []Event {
	e.buf = e.buf[:0]
	for i, v := range e.image {
		if v > 0 && e.RNG.Bernoulli(v) {
			e.buf = append(e.buf, Event{Index: i, Payload: 1})
		}
	}
	return e.buf
}

// CountsAsSpikes implements InputEncoder.
func (e *PoissonEncoder) CountsAsSpikes() bool { return true }

// Size implements InputEncoder.
func (e *PoissonEncoder) Size() int { return e.SizeN }

// BiasScale implements InputEncoder: Poisson rate coding delivers the
// full value per step in expectation.
func (e *PoissonEncoder) BiasScale(int) float64 { return 1 }

// Clone implements CloneableEncoder. The copy starts from the current RNG
// state but advances independently, so clone trains diverge from the
// original's — the encoder is stream-stateful by design.
func (e *PoissonEncoder) Clone() InputEncoder {
	rng := *e.RNG
	return &PoissonEncoder{SizeN: e.SizeN, RNG: &rng}
}
