package coding

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"burstsnn/internal/mathx"
)

func TestSchemeStringRoundTrip(t *testing.T) {
	for _, s := range []Scheme{Real, Rate, Phase, Burst, TTFS} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip failed for %v: %v %v", s, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("ParseScheme accepted garbage")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	for _, s := range []Scheme{Real, Rate, Phase, Burst, TTFS} {
		if err := DefaultConfig(s).Validate(); err != nil {
			t.Fatalf("default config for %v invalid: %v", s, err)
		}
	}
}

func TestConfigValidateRejectsBad(t *testing.T) {
	bad := []Config{
		{Scheme: Rate, VTh: 0},
		{Scheme: Burst, VTh: 1, Beta: 0.5},
		{Scheme: Burst, VTh: 1, Beta: 1},
		{Scheme: Phase, VTh: 1, Period: 0},
		{Scheme: Phase, VTh: 1, Period: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestPiOscillation(t *testing.T) {
	// Π(t) = 2^-(1+mod(t,k)): first phase 1/2, halving each step, then
	// wrapping.
	k := 4
	want := []float64{0.5, 0.25, 0.125, 0.0625, 0.5, 0.25}
	for t0, w := range want {
		if got := Pi(t0, k); got != w {
			t.Fatalf("Pi(%d,%d) = %v, want %v", t0, k, got, w)
		}
	}
}

func TestPiPeriodSumsToAlmostOne(t *testing.T) {
	// One full period transmits sum 2^-1..2^-k = 1 - 2^-k.
	k := 8
	sum := 0.0
	for t0 := 0; t0 < k; t0++ {
		sum += Pi(t0, k)
	}
	if math.Abs(sum-(1-math.Pow(2, -float64(k)))) > 1e-12 {
		t.Fatalf("period sum = %v", sum)
	}
}

func TestNextG(t *testing.T) {
	beta := 2.0
	g := 1.0
	g = NextG(g, true, beta)
	if g != 2 {
		t.Fatalf("g after one spike = %v", g)
	}
	g = NextG(g, true, beta)
	if g != 4 {
		t.Fatalf("g after burst of 2 = %v", g)
	}
	g = NextG(g, false, beta)
	if g != 1.0 {
		t.Fatalf("g must reset to 1 after a silent step, got %v", g)
	}
}

// Property: after n consecutive spikes g = β^n; payloads grow
// geometrically, which is what lets a burst drain a large membrane in
// logarithmically many spikes.
func TestBurstGeometricGrowthProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 20)
		beta := 2.0
		g := 1.0
		for i := 0; i < n; i++ {
			g = NextG(g, true, beta)
		}
		return math.Abs(g-math.Pow(beta, float64(n))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdPerScheme(t *testing.T) {
	rate := Config{Scheme: Rate, VTh: 2}
	if rate.Threshold(5, 1) != 2 {
		t.Fatal("rate threshold must be constant v_th")
	}
	phase := Config{Scheme: Phase, VTh: 1, Period: 8}
	if phase.Threshold(0, 1) != 0.5 || phase.Threshold(1, 1) != 0.25 {
		t.Fatal("phase threshold must follow Π(t)")
	}
	burst := Config{Scheme: Burst, VTh: 0.125, Beta: 2}
	if burst.Threshold(3, 4) != 0.125*4 {
		t.Fatal("burst threshold must be g·v_th")
	}
}

func TestThresholdRealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("real threshold did not panic")
		}
	}()
	Config{Scheme: Real, VTh: 1}.Threshold(0, 1)
}

func TestRealEncoderConstantCurrent(t *testing.T) {
	enc, err := NewInputEncoder(DefaultConfig(Real), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc.Reset([]float64{0.5, 0, 1, 0.25})
	for step := 0; step < 3; step++ {
		evs := enc.Step(step)
		if len(evs) != 3 { // zero pixel omitted
			t.Fatalf("step %d: %d events", step, len(evs))
		}
		if evs[0].Payload != 0.5 || evs[2].Payload != 0.25 {
			t.Fatalf("payloads wrong: %+v", evs)
		}
	}
	if enc.CountsAsSpikes() {
		t.Fatal("real coding must not count as spikes")
	}
}

func TestRateEncoderFrequencyMatchesValue(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(Rate), 3, 0)
	enc.Reset([]float64{0.25, 0.5, 1.0})
	counts := make([]int, 3)
	const T = 20000
	for step := 0; step < T; step++ {
		for _, ev := range enc.Step(step) {
			if ev.Payload != 1 {
				t.Fatalf("rate payload must be 1, got %v", ev.Payload)
			}
			counts[ev.Index]++
		}
	}
	wants := []float64{0.25, 0.5, 1.0}
	for i, w := range wants {
		rate := float64(counts[i]) / T
		if math.Abs(rate-w) > 0.02 {
			t.Fatalf("pixel %d: rate %v, want %v", i, rate, w)
		}
	}
}

// The rate encoder must produce identical trains for identical images —
// independent of presentation order — because its RNG reseeds from the
// image hash at Reset.
func TestRateEncoderReproducibleAcrossOrder(t *testing.T) {
	imgA := []float64{0.3, 0.6}
	imgB := []float64{0.9, 0.1}
	collect := func(enc InputEncoder, img []float64) []int {
		enc.Reset(img)
		var out []int
		for s := 0; s < 50; s++ {
			for _, ev := range enc.Step(s) {
				out = append(out, s*10+ev.Index)
			}
		}
		return out
	}
	enc1, _ := NewInputEncoder(DefaultConfig(Rate), 2, 7)
	enc2, _ := NewInputEncoder(DefaultConfig(Rate), 2, 7)
	// enc1 sees A then B; enc2 sees B only. B's train must match.
	collect(enc1, imgA)
	b1 := collect(enc1, imgB)
	b2 := collect(enc2, imgB)
	if len(b1) != len(b2) {
		t.Fatalf("train lengths differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("rate trains depend on presentation order")
		}
	}
	// Different seeds must differ.
	enc3, _ := NewInputEncoder(DefaultConfig(Rate), 2, 8)
	b3 := collect(enc3, imgB)
	same := len(b3) == len(b2)
	if same {
		for i := range b3 {
			if b3[i] != b2[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical trains")
	}
}

func TestRateEncoderZeroSilent(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(Rate), 2, 0)
	enc.Reset([]float64{0, 0})
	for step := 0; step < 50; step++ {
		if len(enc.Step(step)) != 0 {
			t.Fatal("zero image must be silent")
		}
	}
}

// Property: one phase-coding period transmits exactly the k-bit quantized
// value: Σ payloads = round(v·2^k)/2^k (saturated below 1).
func TestPhaseEncoderExactValueProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		v := r.Float64()
		enc, err := NewInputEncoder(DefaultConfig(Phase), 1, 0)
		if err != nil {
			return false
		}
		enc.Reset([]float64{v})
		sum := 0.0
		for step := 0; step < 8; step++ {
			for _, ev := range enc.Step(step) {
				sum += ev.Payload
			}
		}
		levels := 256.0
		q := math.Round(v * levels)
		if q >= levels {
			q = levels - 1
		}
		return math.Abs(sum-q/levels) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseEncoderPeriodicity(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(Phase), 1, 0)
	enc.Reset([]float64{0.7})
	collect := func(from int) []Event {
		var out []Event
		for s := from; s < from+8; s++ {
			out = append(out, append([]Event(nil), enc.Step(s)...)...)
		}
		return out
	}
	p1, p2 := collect(0), collect(8)
	if len(p1) != len(p2) {
		t.Fatalf("periods differ in spike count: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("phase encoding must repeat every period")
		}
	}
}

func TestPhaseEncoderMSBFirst(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(Phase), 1, 0)
	enc.Reset([]float64{0.5}) // binary 0.10000000
	evs := enc.Step(0)
	if len(evs) != 1 || evs[0].Payload != 0.5 {
		t.Fatalf("0.5 must spike at phase 0 with payload 1/2, got %+v", evs)
	}
	for s := 1; s < 8; s++ {
		if len(enc.Step(s)) != 0 {
			t.Fatalf("0.5 must be silent after its MSB, step %d fired", s)
		}
	}
}

func TestTTFSSingleSpikePerPeriod(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(TTFS), 3, 0)
	enc.Reset([]float64{0.9, 0.3, 0})
	counts := make([]int, 3)
	firstPhase := map[int]int{}
	for s := 0; s < 8; s++ {
		for _, ev := range enc.Step(s) {
			counts[ev.Index]++
			if _, ok := firstPhase[ev.Index]; !ok {
				firstPhase[ev.Index] = s
			}
		}
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("TTFS spike counts = %v, want one per nonzero pixel", counts)
	}
	if firstPhase[0] >= firstPhase[1] {
		t.Fatalf("stronger input must fire earlier: %v", firstPhase)
	}
}

func TestBurstInputEncoderRejected(t *testing.T) {
	if _, err := NewInputEncoder(DefaultConfig(Burst), 4, 0); err == nil {
		t.Fatal("burst input encoder must be rejected")
	}
}

func TestPoissonEncoderRate(t *testing.T) {
	enc := &PoissonEncoder{SizeN: 1, RNG: mathx.NewRNG(42)}
	enc.Reset([]float64{0.4})
	hits := 0
	const T = 20000
	for s := 0; s < T; s++ {
		hits += len(enc.Step(s))
	}
	if rate := float64(hits) / T; math.Abs(rate-0.4) > 0.02 {
		t.Fatalf("poisson rate %v, want ~0.4", rate)
	}
	if !enc.CountsAsSpikes() || enc.Size() != 1 {
		t.Fatal("poisson metadata wrong")
	}
}

func TestEncoderResetSizeMismatchPanics(t *testing.T) {
	enc, _ := NewInputEncoder(DefaultConfig(Rate), 3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	enc.Reset([]float64{1})
}

func randomImage(seed uint64, n int) []float64 {
	r := mathx.NewRNG(seed)
	img := make([]float64, n)
	for i := range img {
		img[i] = r.Float64()
	}
	return img
}

// TestQuantizeMatchesRound pins quantizeBits against the formula it
// replaced, round(clamp(v)·2^k) through math.Round: bit-identical codes
// on every tie (2n+1)/2^(k+1) of the period and the floats either side of
// it, on random values, and on the edges — out of range, ±Inf, ±0 and
// NaN, which saturates to the top code.
func TestQuantizeMatchesRound(t *testing.T) {
	ref := func(v float64, period int) uint64 {
		levels := math.Pow(2, float64(period))
		if math.IsNaN(v) {
			return uint64(levels) - 1
		}
		q := uint64(math.Round(mathx.Clamp(v, 0, 1) * levels))
		if q >= uint64(levels) {
			q = uint64(levels) - 1
		}
		return q
	}
	for _, period := range []int{1, 4, 8, 12} {
		vals := []float64{0, math.Copysign(0, -1), 1, -1, 2, -0.5, 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0), math.Nextafter(1, 2)}
		for n := 0; n < 1<<period; n++ {
			tie := float64(2*n+1) / math.Pow(2, float64(period+1))
			vals = append(vals, tie, math.Nextafter(tie, 0), math.Nextafter(tie, 1))
		}
		vals = append(vals, randomImage(uint64(period), 1<<16-len(vals))...)
		got := make([]uint64, len(vals))
		quantizeBits(got, vals, period)
		for i, v := range vals {
			if want := ref(v, period); got[i] != want {
				t.Fatalf("period %d: quantizeBits(%v) = %d, want %d", period, v, got[i], want)
			}
		}
	}
}

// TestPhaseTTFSStepMatchesReference pins the branch-free input sweep
// against the append loop it replaced: same events — index, payload
// bits, order — for every step of two periods. The all-ones image
// drives the write cursor to the end of the buffer (every pixel spikes at
// every phase under phase coding; all at phase 0 under TTFS) and the
// all-zero image keeps it at zero.
func TestPhaseTTFSStepMatchesReference(t *testing.T) {
	const size = 97
	ones, zeros := make([]float64, size), make([]float64, size)
	for i := range ones {
		ones[i] = 1
	}
	images := [][]float64{randomImage(3, size), randomImage(4, size), ones, zeros, randomImage(3, size), randomImage(3, size)}
	for _, scheme := range []Scheme{Phase, TTFS} {
		for _, period := range []int{4, 8} {
			cfg := DefaultConfig(scheme)
			cfg.Period = period
			plain, err := NewInputEncoder(cfg, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			q := make([]uint64, size)
			// check steps the encoder at each of steps and compares with
			// a fresh append-loop sweep of q.
			check := func(n int, steps ...int) {
				t.Helper()
				for _, step := range steps {
					var want []Event
					phase := step % period
					for i, b := range q {
						spikes := b>>uint(period-1-phase)&1 == 1
						if scheme == TTFS {
							spikes = b != 0 && period-bits.Len64(b) == phase
						}
						if spikes {
							want = append(want, Event{Index: i, Payload: Pi(step, period)})
						}
					}
					got := plain.Step(step)
					if len(got) != len(want) {
						t.Fatalf("%v period %d image %d step %d: %d events, want %d",
							scheme, period, n, step, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || math.Float64bits(got[i].Payload) != math.Float64bits(want[i].Payload) {
							t.Fatalf("%v period %d image %d step %d: event %d = %+v, want %+v",
								scheme, period, n, step, i, got[i], want[i])
						}
					}
				}
			}
			for n, img := range images {
				quantizeBits(q, img, period)
				plain.Reset(img)
				for step := 0; step < 2*period; step++ {
					check(n, step)
				}
			}
			// The phase encoder replays a period's lists after building
			// them once per Reset. Steps called out of order after a Reset
			// (t = 9 before t = 1) must still each see their own phase.
			for n, img := range images {
				quantizeBits(q, img, period)
				plain.Reset(img)
				check(n, 9, 1, 2*period+1, 0, period, 3*period-1, period-1)
			}
			// A Reset to a new image whose first call lands past the first
			// period must sweep the new image, not replay the old one's
			// list for that phase.
			for n := 1; n < len(images); n++ {
				quantizeBits(q, images[n-1], period)
				plain.Reset(images[n-1])
				check(n-1, 0, 1, 2, 3)
				quantizeBits(q, images[n], period)
				plain.Reset(images[n])
				check(n, period+2, 2, 3, 2*period+1)
			}
			plain.Reset(ones)
			if allocs := testing.AllocsPerRun(20, func() { plain.Step(0) }); allocs != 0 {
				t.Errorf("%v period %d: Step allocates %v times", scheme, period, allocs)
			}
		}
	}
}

// TestBiasScaleTableMatchesExpression pins the phase and TTFS encoders'
// tabulated BiasScale to phaseBiasScale's bits at every step of three
// periods, for every valid period.
func TestBiasScaleTableMatchesExpression(t *testing.T) {
	for period := 1; period <= 62; period++ {
		for _, s := range []Scheme{Phase, TTFS} {
			cfg := DefaultConfig(s)
			cfg.Period = period
			enc, err := NewInputEncoder(cfg, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 3*period; step++ {
				want := math.Float64bits(phaseBiasScale(step, period))
				if got := math.Float64bits(enc.BiasScale(step)); got != want {
					t.Fatalf("%v period %d step %d: BiasScale %#016x, want %#016x", s, period, step, got, want)
				}
			}
		}
	}
}

// TestEncoderPeriodProperty pins InputEncoder.Period for all four input
// codings: phase and TTFS repeat with their oscillation period, real input
// every step, rate coding promises nothing (0). Wherever the period is k >
// 0, Step(t) returns Step(t mod k)'s events for every t over several
// periods, stepped in order and out of it, on a clone too, across Resets.
func TestEncoderPeriodProperty(t *testing.T) {
	r := mathx.NewRNG(0x9E71)
	const size = 96
	for _, c := range []struct {
		scheme Scheme
		period int // Config.Period
		want   int
	}{
		{Real, 8, 1}, {Rate, 8, 0}, {Phase, 8, 8}, {Phase, 5, 5}, {TTFS, 8, 8}, {TTFS, 3, 3},
	} {
		cfg := DefaultConfig(c.scheme)
		cfg.Period = c.period
		enc, err := NewInputEncoder(cfg, size, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []InputEncoder{enc, enc.(CloneableEncoder).Clone()} {
			if got := e.Period(); got != c.want {
				t.Fatalf("%v (period %d): Period() = %d, want %d", c.scheme, c.period, got, c.want)
			}
			k := e.Period()
			if k == 0 {
				continue
			}
			for img := 0; img < 3; img++ {
				image := make([]float64, size)
				for i := range image {
					image[i] = r.Float64()
				}
				e.Reset(image)
				first := make([][]Event, k)
				for t := 0; t < k; t++ {
					first[t] = append([]Event(nil), e.Step(t)...)
				}
				for _, step := range append(r.Perm(4*k), 4*k, 9*k+1) {
					got := e.Step(step)
					want := first[step%k]
					if len(got) != len(want) {
						t.Fatalf("%v image %d: step %d emitted %d events, step %d %d", c.scheme, img, step, len(got), step%k, len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v image %d: step %d event %d = %+v, step %d's %+v", c.scheme, img, step, i, got[i], step%k, want[i])
						}
					}
				}
			}
		}
	}
	p := &PoissonEncoder{SizeN: size, RNG: mathx.NewRNG(1)}
	if p.Period() != 0 {
		t.Fatalf("PoissonEncoder.Period() = %d, want 0", p.Period())
	}
}
