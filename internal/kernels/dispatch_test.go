package kernels

import (
	"math"
	"testing"

	"burstsnn/internal/mathx"
)

// Dispatch-selection contract: ForceLevel round-trips through
// ActiveLevel and Kind, rejects garbage, and the detected ladder is
// monotone — a machine that can run a tier can run every narrower one.

func TestForceLevelRoundTrip(t *testing.T) {
	start := ActiveLevel() // startup level: detected, or the env override
	defer ForceLevel("")
	// The float32 plane has no avx512 forms: that tier runs the avx2 ones.
	kinds := map[string]string{
		LevelPurego: "f32",
		LevelSSE:    "f32-sse",
		LevelAVX2:   "f32-avx2",
		LevelAVX512: "f32-avx2",
	}
	for _, lv := range Available() {
		if err := ForceLevel(lv); err != nil {
			t.Fatalf("ForceLevel(%q): %v", lv, err)
		}
		if got := ActiveLevel(); got != lv {
			t.Fatalf("ActiveLevel() = %q after ForceLevel(%q)", got, lv)
		}
		if got, want := Kind(), kinds[lv]; got != want {
			t.Fatalf("Kind() = %q at level %q, want %q", got, lv, want)
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
	for _, bad := range []string{"sse3", "AVX2", "f32", "avx512f", "AVX512", "f32-sse"} {
		if err := ForceLevel(bad); err == nil {
			t.Fatalf("ForceLevel(%q) accepted", bad)
		}
		if got := ActiveLevel(); got != before {
			t.Fatalf("failed ForceLevel(%q) changed the active level to %q", bad, got)
		}
	}
}

func TestLevelLadderMonotone(t *testing.T) {
	ladder := []string{LevelPurego, LevelSSE, LevelAVX2, LevelAVX512}
	avail := Available()
	if len(avail) == 0 || len(avail) > len(ladder) {
		t.Fatalf("Available() = %v", avail)
	}
	// Available must be a prefix of the ladder ending at DetectedLevel:
	// avx512 implies avx2 implies sse implies purego.
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

// TestCrossTierTailAlignmentFuzz hammers the masked-load/store edges the
// packed tiers are most likely to get wrong: odd lane counts (B not a
// multiple of the vector width), sub-stripe blocks, and unaligned slice
// offsets (the kernels only ever see unaligned-capable moves, but an
// offset start shifts every 8-lane group boundary). Each round builds
// one random case and replays it under every available tier from
// identical inputs; all tiers must agree bit for bit with the purego
// tier — not just with a reference at friendly shapes.
func TestCrossTierTailAlignmentFuzz(t *testing.T) {
	levels := Available()
	if len(levels) < 2 {
		t.Skip("single-tier build: nothing to cross-check")
	}
	defer ForceLevel("")
	r := mathx.NewRNG(0x7A11)

	type result struct {
		f32  []float32
		f64  []float64
		u32  []uint32
		mask uint64
	}
	// randLike tiles src to n elements, so every tier's case sees the
	// same deterministic inputs without another RNG draw mid-round.
	randLike := func(src []float32, n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = src[i%len(src)]
		}
		return v
	}
	// f64Like is randLike for the float64 primitives' inputs.
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
		b := 1 + r.Intn(21)    // stripe stride, incl. non-multiples of 8
		lanes := 1 + r.Intn(b) // sub-stripe and odd lane counts
		n := r.Intn(13)        // rows, incl. zero
		size := off + 1
		if n > 0 {
			size = off + (n-1)*b + lanes
		}
		buf := randF32s(r, size, 1)
		row := randF32s(r, n, 0.5)
		pv := randF32s(r, b, 1)
		p := float32(r.Norm(0, 1))
		th := float32(0.125 * math.Pow(2, float64(r.Intn(4))))
		bias := float32(r.Norm(0, 0.1))
		vrow := randF32s(r, lanes, float64(th)*2)
		g := make([]float32, lanes)
		fired := make([]uint32, lanes)
		for i := range g {
			g[i] = float32(math.Pow(2, float64(r.Intn(5))))
			if r.Bernoulli(0.5) {
				fired[i] = ^uint32(0)
			}
		}
		idx := make([]int32, lanes)
		bits := make([]uint64, lanes)
		for i := range bits {
			bits[i] = uint64(r.Intn(1 << 12))
		}
		shift := uint(r.Intn(64))

		cases := []struct {
			name string
			run  func() result
		}{
			{"axpy", func() result {
				dst := append([]float32(nil), buf...)
				AxpyBlock(dst[off:], row, p, b, lanes)
				return result{f32: dst}
			}},
			{"axpyvec", func() result {
				dst := append([]float32(nil), buf...)
				AxpyBlockVec(dst[off:], row, append([]float32(nil), pv...), b, lanes)
				return result{f32: dst}
			}},
			{"scaleadd", func() result {
				dst := append([]float32(nil), buf...)
				ScaleAdd(dst[off:], p)
				return result{f32: dst}
			}},
			{"fire", func() result {
				v := append([]float32(nil), vrow...)
				m := FireRow(v, th)
				return result{f32: v, mask: m}
			}},
			{"firebias", func() result {
				v := append([]float32(nil), vrow...)
				m := FireRowBias(v, bias, th)
				return result{f32: v, mask: m}
			}},
			{"fireburst", func() result {
				v := append([]float32(nil), vrow...)
				gs := append([]float32(nil), g...)
				fs := append([]uint32(nil), fired...)
				pay := make([]float32, lanes)
				m := FireRowBurst(v, gs, pay, fs, bias, 2, th)
				return result{f32: append(append(append([]float32(nil), v...), gs...), pay...), u32: fs, mask: m}
			}},
			{"selectmax", func() result {
				best := append([]float32(nil), vrow...)
				ix := append([]int32(nil), idx...)
				SelectMaxRow(best, pv[:lanes], ix, int32(round), lanes)
				u := make([]uint32, lanes)
				for i, x := range ix {
					u[i] = uint32(x)
				}
				return result{f32: best, u32: u}
			}},
			{"lanemask", func() result {
				return result{mask: LaneMaskBit(bits, shift)<<1 ^ LaneMaskEq(bits, bits[0])}
			}},
			{"convscatter", func() result {
				outC := 1 + lanes%4
				taps := make([]ConvTap, n%5)
				for i := range taps {
					taps[i] = ConvTap{WOff: int32((i * outC) % max(1, len(row)-outC+1)), Base: int32(i % 3)}
				}
				if len(row) < outC {
					taps = nil
				}
				vm := make([]float32, 3*outC*b)
				copy(vm, buf)
				ConvScatterVec(vm, row, taps, outC, b, pv)
				return result{f32: vm}
			}},
			{"firerows", func() result {
				nr := 1 + n
				v := randLike(vrow, nr*b)
				gs := randLike(g, nr*b)
				fs := make([]uint32, nr*b)
				for i := range fs {
					fs[i] = fired[i%len(fired)]
				}
				pay := make([]float32, nr*b)
				masks := make([]uint64, nr)
				occ := make([]uint64, (nr+63)/64)
				FireRowsBurst(v, gs, pay, fs, masks, occ, nr, b, nil, 1, 2, th)
				sum := occ[0]
				for _, m := range masks {
					sum = sum*1099511628211 ^ m
				}
				return result{f32: append(append(append([]float32(nil), v...), gs...), pay...), u32: fs, mask: sum}
			}},
			{"convscatter64", func() result {
				outC := fuzzOutCs[lanes%len(fuzzOutCs)]
				taps := make([]ConvTap, n%4)
				for i := range taps {
					taps[i] = ConvTap{WOff: int32(i%2) * int32(outC), Base: int32(i)}
				}
				vm := f64Like(buf, off+3*outC)
				ConvScatter64(vm[off:], f64Like(pv, off+2*outC)[off:], taps, outC, float64(p))
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
				for i := range ref.f32 {
					if math.Float32bits(got.f32[i]) != math.Float32bits(ref.f32[i]) {
						t.Fatalf("round %d %s (off=%d b=%d lanes=%d n=%d): tier %s f32[%d] = %v, %s %v",
							round, c.name, off, b, lanes, n, lv, i, got.f32[i], levels[0], ref.f32[i])
					}
				}
				for i := range ref.f64 {
					if math.Float64bits(got.f64[i]) != math.Float64bits(ref.f64[i]) {
						t.Fatalf("round %d %s (off=%d b=%d lanes=%d n=%d): tier %s f64[%d] = %v, %s %v",
							round, c.name, off, b, lanes, n, lv, i, got.f64[i], levels[0], ref.f64[i])
					}
				}
				for i := range ref.u32 {
					if got.u32[i] != ref.u32[i] {
						t.Fatalf("round %d %s: tier %s u32[%d] = %x, %s %x",
							round, c.name, lv, i, got.u32[i], levels[0], ref.u32[i])
					}
				}
			}
		}
	}
}
