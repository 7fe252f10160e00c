// Package mathx provides deterministic random number generation and the
// statistical primitives shared by the DNN trainer, the SNN simulator, and
// the spike-train analysis code.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from a single integer seed.
package mathx

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is small, fast, has no global state, and produces an
// identical stream on every platform, which keeps dataset generation and
// weight initialization reproducible across runs.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Reseed rewinds the generator to the start of seed's stream in place,
// equivalent to replacing it with NewRNG(seed) but without allocating —
// per-request reseeding (e.g. the deterministic rate input encoder) sits
// on the serving hot path.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// splitmixGamma is splitmix64's state increment (2^64 / φ, odd).
const splitmixGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next raw 64-bit value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	return mix64(r.state)
}

// SplitMix64 is the standard 64-bit finalizer (Steele et al.'s SplitMix
// step, the first value of NewRNG(z)'s stream): a bijection with full
// avalanche, for turning weakly mixed sums into uniform keys.
func SplitMix64(z uint64) uint64 { return mix64(z + splitmixGamma) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + std*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place through swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent generator from the current stream. Forked
// generators let one master seed drive many subsystems without the streams
// aliasing each other.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}
