package kernels

import (
	"math"
	"testing"

	"burstsnn/internal/mathx"
)

// Dispatch-selection contract: ForceLevel round-trips through
// ActiveLevel, rejects garbage, and the detected ladder is monotone — a
// machine that can run a tier can run every narrower one.

func TestForceLevelRoundTrip(t *testing.T) {
	start := ActiveLevel() // startup level: detected, or the env override
	defer ForceLevel("")
	for _, lv := range Available() {
		if err := ForceLevel(lv); err != nil {
			t.Fatalf("ForceLevel(%q): %v", lv, err)
		}
		if got := ActiveLevel(); got != lv {
			t.Fatalf("ActiveLevel() = %q after ForceLevel(%q)", got, lv)
		}
	}
	if err := ForceLevel(""); err != nil {
		t.Fatalf(`ForceLevel(""): %v`, err)
	}
	if got := ActiveLevel(); got != start {
		t.Fatalf("ActiveLevel() = %q after reset, want startup level %q", got, start)
	}
}

func TestForceLevelInvalid(t *testing.T) {
	before := ActiveLevel()
	// "sse" was a tier once: a stale KERNELS_LEVEL=sse must fail loudly.
	for _, bad := range []string{"sse", "sse3", "AVX2", "f32", "avx512f", "AVX512", "f32-avx2"} {
		if err := ForceLevel(bad); err == nil {
			t.Fatalf("ForceLevel(%q) accepted", bad)
		}
		if got := ActiveLevel(); got != before {
			t.Fatalf("failed ForceLevel(%q) changed the active level to %q", bad, got)
		}
	}
}

func TestLevelLadderMonotone(t *testing.T) {
	ladder := []string{LevelPurego, LevelAVX2, LevelAVX512}
	avail := Available()
	if len(avail) == 0 || len(avail) > len(ladder) {
		t.Fatalf("Available() = %v", avail)
	}
	// Available must be a prefix of the ladder ending at DetectedLevel:
	// avx512 implies avx2 implies purego.
	for i, lv := range avail {
		if lv != ladder[i] {
			t.Fatalf("Available()[%d] = %q, want ladder prefix %v", i, lv, ladder[:len(avail)])
		}
	}
	if got := avail[len(avail)-1]; got != DetectedLevel() {
		t.Fatalf("Available() ends at %q, want DetectedLevel %q", got, DetectedLevel())
	}
	// Every rung above the detected one must be rejected.
	for i := len(avail); i < len(ladder); i++ {
		if err := ForceLevel(ladder[i]); err == nil {
			ForceLevel("")
			t.Fatalf("ForceLevel(%q) accepted beyond detected level %q", ladder[i], DetectedLevel())
		}
	}
}

// TestCrossTierTailAlignmentFuzz hammers the edges the packed float64
// tiers are most likely to get wrong: channel counts that are not a
// multiple of the vector width, populations that end mid-period, rows
// whose width crosses every group boundary, and unaligned slice offsets
// (the kernels only ever see unaligned-capable moves, but an offset
// start shifts every group boundary). Each round builds one random case
// and replays it under every available tier from identical inputs; all
// tiers must agree bit for bit with the purego tier — not just with a
// reference at friendly shapes. The float32 primitives have one body on
// every tier, so they have no case here.
func TestCrossTierTailAlignmentFuzz(t *testing.T) {
	levels := Available()
	if len(levels) < 2 {
		t.Skip("single-tier build: nothing to cross-check")
	}
	defer ForceLevel("")
	r := mathx.NewRNG(0x7A11)

	type result struct {
		f64  []float64
		mask uint64
	}
	// f64Like tiles src to n float64 elements, so every tier's case sees
	// the same deterministic inputs without another RNG draw mid-round.
	f64Like := func(src []float32, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(src[i%len(src)])
		}
		return v
	}
	// run executes one primitive case under a tier from copies of the
	// canonical inputs and returns everything the call may have written.
	for round := 0; round < 300; round++ {
		off := r.Intn(9)       // unaligned start offset (elements)
		b := 1 + r.Intn(21)    // gather width, sweep tail, event count
		lanes := 1 + r.Intn(b) // picks OutC and the gather's K
		n := r.Intn(13)        // rows, taps and periods, incl. zero
		size := off + 1
		if n > 0 {
			size = off + (n-1)*b + lanes
		}
		buf := randF32s(r, size, 1)
		pv := randF32s(r, b, 1)
		p := float32(r.Norm(0, 1))
		th := float32(0.125 * math.Pow(2, float64(r.Intn(4))))
		vrow := randF32s(r, lanes, float64(th)*2)
		g := make([]float32, lanes)
		for i := range g {
			g[i] = float32(math.Pow(2, float64(r.Intn(5))))
		}

		cases := []struct {
			name string
			run  func() result
		}{
			{"convscatterevents64 one event", func() result {
				outC := fuzzOutCs[lanes%len(fuzzOutCs)]
				taps := make([]ConvTap, n%4)
				for i := range taps {
					taps[i] = ConvTap{WOff: int32(i%2) * int32(outC), Base: int32(i)}
				}
				vm := f64Like(buf, off+3*outC)
				wsc := f64Like(pv, off+2*outC)[off:]
				want := append([]float64(nil), vm...)
				refConvScatter64(want[off:], wsc, taps, outC, float64(p))
				ConvScatterEvents64(vm[off:], wsc, taps, []int32{0, int32(len(taps))}, []Event{{Payload: float64(p)}}, outC)
				if i := sameBits64(vm, want); i >= 0 {
					t.Fatalf("round %d one-event scatter (off=%d outC=%d taps=%d): vmem[%d] = %v, reference %v",
						round, off, outC, len(taps), i, vm[i], want[i])
				}
				return result{f64: vm}
			}},
			{"convscatterevents64", func() result {
				outC := fuzzOutCs[lanes%len(fuzzOutCs)]
				taps := make([]ConvTap, n%4)
				for i := range taps {
					taps[i] = ConvTap{WOff: int32(i%2) * int32(outC), Base: int32(i)}
				}
				// Input 0 owns every tap but the last, input 1 the last, input 2 none.
				tapStart := []int32{0, int32(len(taps)), int32(len(taps)), int32(len(taps))}
				if len(taps) > 0 {
					tapStart[1]--
				}
				events := make([]Event, b%5)
				for i := range events {
					events[i] = Event{Index: (i + lanes) % 3, Payload: float64(pv[i])}
				}
				vm := f64Like(buf, off+3*outC)
				ConvScatterEvents64(vm[off:], f64Like(pv, off+2*outC)[off:], taps, tapStart, events, outC)
				return result{f64: vm}
			}},
			{"firecells64", func() result {
				outC := fuzzOutCs[lanes%len(fuzzOutCs)]
				nc := outC*n + b // ends mid-period for most shapes
				v := f64Like(vrow, off+nc)
				gs := f64Like(g, off+nc)
				bias64 := f64Like(pv, off+outC)[off:]
				if n&1 == 0 {
					bias64 = nil
				}
				ev := make([]Event, 2*nc)
				k := FireCells64(v[off:], ev[:nc], bias64, float64(p), float64(th))
				kb := FireCellsBurst64(v[off:], gs[off:], ev[nc:], bias64, float64(p), 2, float64(th))
				out := append(v, gs...)
				for _, e := range append(ev[:k:k], ev[nc:nc+kb]...) {
					out = append(out, float64(e.Index), e.Payload)
				}
				return result{f64: out, mask: uint64(k)<<32 | uint64(kb)}
			}},
			{"convgather64", func() result {
				k := 1 + 2*(lanes%3)
				inC, outC := 1+n%3, fuzzOutCs[b%len(fuzzOutCs)]
				ph, pw := k+n%5, k+b // outW = b+1 crosses every group boundary
				wsc := f64Like(pv, off+inC*k*k*outC)[off:]
				plane := f64Like(buf, off+inC*ph*pw)
				v := f64Like(vrow, off+outC*(ph-k+1)*(pw-k+1))
				ConvGather64(v[off:], plane[off:], wsc, inC, k, ph, pw)
				return result{f64: v}
			}},
		}
		for _, c := range cases {
			var ref result
			for li, lv := range levels {
				if err := ForceLevel(lv); err != nil {
					t.Fatal(err)
				}
				got := c.run()
				if li == 0 {
					ref = got
					continue
				}
				if got.mask != ref.mask {
					t.Fatalf("round %d %s (off=%d b=%d lanes=%d n=%d): tier %s mask %064b, %s %064b",
						round, c.name, off, b, lanes, n, lv, got.mask, levels[0], ref.mask)
				}
				for i := range ref.f64 {
					if math.Float64bits(got.f64[i]) != math.Float64bits(ref.f64[i]) {
						t.Fatalf("round %d %s (off=%d b=%d lanes=%d n=%d): tier %s f64[%d] = %v, %s %v",
							round, c.name, off, b, lanes, n, lv, i, got.f64[i], levels[0], ref.f64[i])
					}
				}
			}
		}
	}
}
