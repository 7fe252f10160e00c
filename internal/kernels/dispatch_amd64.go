//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"sync/atomic"
)

// The amd64 build carries four dispatch tiers (see level.go):
//
//   - purego: the generic Go loops, shared with the purego build;
//   - sse: baseline-SSE assembly (kernels_amd64.s) — MOVUPS, ADDPS,
//     MULSS, SHUFPS, CMPPS, MOVMSKPS — which every amd64 CPU guarantees;
//   - avx2: AVX2 assembly (kernels_avx2_amd64.s, kernels64_amd64.s) —
//     VEX-encoded 8-lane packed single precision and 4-cell float64,
//     gated on CPUID (AVX2 + OSXSAVE with YMM state enabled in XCR0);
//   - avx512: the float64 conv scatter, conv gather and fire sweeps on
//     ZMM registers (kernels64_amd64.s), gated on AVX512F with opmask and
//     ZMM state enabled in XCR0. Every float32 kernel runs its avx2 form
//     there, so the avx2 checks below read "at least avx2".
//
// The tier is detected once at startup (hand-rolled CPUID — no
// dependencies) and stored in an atomic so ForceLevel is safe against
// concurrent kernel calls; the per-call load is an ordinary x86 read.
// The assembly kernels take raw pointers; the exported wrappers in
// kernels.go have already validated lengths.

type level int32

const (
	levelPurego level = iota
	levelSSE
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{LevelPurego, LevelSSE, LevelAVX2, LevelAVX512}

var (
	detected = detectLevel()
	baseline = detected // startup level: detected, or the KERNELS_LEVEL override
	active   atomic.Int32
)

func init() {
	active.Store(int32(detected))
	initLevelFromEnv()
	baseline = activeLevel()
}

// cpuid executes CPUID with the given leaf/subleaf (cpuid_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask (cpuid_amd64.s).
func xgetbv0() (eax, edx uint32)

// detectLevel walks the CPUID ladder: AVX2 requires the AVX2 feature
// bit (leaf 7 EBX[5]) plus AVX and OSXSAVE (leaf 1 ECX[28], ECX[27])
// with the OS actually enabling XMM+YMM state in XCR0 (bits 1 and 2) —
// without the XCR0 check a kernel or VM that masks YMM state would
// fault on the first VMOVUPS. AVX512 additionally requires AVX512F
// (leaf 7 EBX[16]) and XCR0 bits 5–7 (opmask, upper halves of ZMM0–15,
// ZMM16–31). Baseline SSE needs no detection.
func detectLevel() level {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return levelSSE
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return levelSSE
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return levelSSE
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	if b7&avx2 == 0 {
		return levelSSE
	}
	if b7&avx512f == 0 || xcr0&0xe6 != 0xe6 {
		return levelAVX2
	}
	return levelAVX512
}

func activeLevel() level { return level(active.Load()) }

// f32Level is the tier the float32 plane dispatches on: it has no avx512
// forms, so that tier runs the avx2 ones.
func f32Level() level { return min(activeLevel(), levelAVX2) }

func activeLevelName() string   { return levelNames[activeLevel()] }
func detectedLevelName() string { return levelNames[detected] }

func availableLevels() []string {
	return append([]string(nil), levelNames[:detected+1]...)
}

func forceLevel(name string) error {
	lv := baseline
	if name != "" {
		found := false
		for i, n := range levelNames {
			if n == name {
				lv, found = level(i), true
				break
			}
		}
		if !found {
			return fmt.Errorf("kernels: unknown dispatch level %q (want one of %q)", name, levelNames)
		}
		if lv > detected {
			return fmt.Errorf("kernels: dispatch level %q is not supported on this machine (detected %q)",
				name, detectedLevelName())
		}
	}
	active.Store(int32(lv))
	return nil
}

func kindName() string {
	switch f32Level() {
	case levelAVX2:
		return "f32-avx2"
	case levelSSE:
		return "f32-sse"
	default:
		return "f32"
	}
}

// Baseline-SSE kernels (kernels_amd64.s).

//go:noescape
func axpyBlockAsm(dst, row *float32, n int, p float32, b, lanes int)

//go:noescape
func axpyBlockVecAsm(dst, row, pv *float32, n, b, lanes int)

//go:noescape
func scaleAddAsm(dst *float32, n int, x float32)

//go:noescape
func fireRowAsm(v *float32, n int, th float32) uint64

//go:noescape
func fireRowBiasAsm(v *float32, n int, bias, th float32) uint64

//go:noescape
func fireRowBurstAsm(v, gs, pay *float32, fired *uint32, n int, bias, beta, vth float32) uint64

//go:noescape
func selectMaxRowAsm(best, row *float32, idx *int32, n int, o int32)

//go:noescape
func convScatterVecAsm(vmem, wsc *float32, taps *ConvTap, ntaps, outC int, pv *float32)

//go:noescape
func fireRowsBurstAsm(v, gs, pay *float32, fired *uint32, masks, occ *uint64, n int, bias *float32, bsc, beta, vth float32)

// AVX2 kernels (kernels_avx2_amd64.s).

//go:noescape
func axpyBlockAVX2(dst, row *float32, n int, p float32, b, lanes int)

//go:noescape
func axpyBlockVecAVX2(dst, row, pv *float32, n, b, lanes int)

//go:noescape
func scaleAddAVX2(dst *float32, n int, x float32)

//go:noescape
func fireRowAVX2(v *float32, n int, th float32) uint64

//go:noescape
func fireRowBiasAVX2(v *float32, n int, bias, th float32) uint64

//go:noescape
func fireRowBurstAVX2(v, gs, pay *float32, fired *uint32, n int, bias, beta, vth float32) uint64

//go:noescape
func selectMaxRowAVX2(best, row *float32, idx *int32, n int, o int32)

//go:noescape
func laneMaskBitAVX2(row *uint64, n int, shiftLeft uint64) uint64

//go:noescape
func laneMaskEqAVX2(row *uint64, n int, want uint64) uint64

//go:noescape
func convScatterVecAVX2(vmem, wsc *float32, taps *ConvTap, ntaps, outC int, pv *float32)

//go:noescape
func fireRowsBurstAVX2(v, gs, pay *float32, fired *uint32, masks, occ *uint64, n int, bias *float32, bsc, beta, vth float32)

// AVX2 and AVX512 float64 kernels (kernels64_amd64.s).

//go:noescape
func convScatterEvents64AVX2(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC int)

//go:noescape
func convScatterEvents64AVX512(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC int)

//go:noescape
func convGather64AVX2(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)

//go:noescape
func convGather64AVX512(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)

//go:noescape
func fireCells64AVX2(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int

//go:noescape
func fireCellsBurst64AVX2(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int

//go:noescape
func fireCells64AVX512(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int

//go:noescape
func fireCellsBurst64AVX512(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int

func axpyBlock(dst, row []float32, p float32, b, lanes int) {
	switch f32Level() {
	case levelAVX2:
		axpyBlockAVX2(&dst[0], &row[0], len(row), p, b, lanes)
	case levelSSE:
		axpyBlockAsm(&dst[0], &row[0], len(row), p, b, lanes)
	default:
		axpyBlockGeneric(dst, row, p, b, lanes)
	}
}

func axpyBlockVec(dst, row, pv []float32, b, lanes int) {
	switch f32Level() {
	case levelAVX2:
		axpyBlockVecAVX2(&dst[0], &row[0], &pv[0], len(row), b, lanes)
	case levelSSE:
		axpyBlockVecAsm(&dst[0], &row[0], &pv[0], len(row), b, lanes)
	default:
		axpyBlockVecGeneric(dst, row, pv, b, lanes)
	}
}

func scaleAdd(dst []float32, x float32) {
	switch f32Level() {
	case levelAVX2:
		scaleAddAVX2(&dst[0], len(dst), x)
	case levelSSE:
		scaleAddAsm(&dst[0], len(dst), x)
	default:
		scaleAddGeneric(dst, x)
	}
}

func fireRow(v []float32, th float32) uint64 {
	switch f32Level() {
	case levelAVX2:
		return fireRowAVX2(&v[0], len(v), th)
	case levelSSE:
		return fireRowAsm(&v[0], len(v), th)
	default:
		return fireRowGeneric(v, th)
	}
}

func fireRowBias(v []float32, bias, th float32) uint64 {
	switch f32Level() {
	case levelAVX2:
		return fireRowBiasAVX2(&v[0], len(v), bias, th)
	case levelSSE:
		return fireRowBiasAsm(&v[0], len(v), bias, th)
	default:
		return fireRowBiasGeneric(v, bias, th)
	}
}

func fireRowBurst(v, g, pay []float32, fired []uint32, bias, beta, vth float32) uint64 {
	switch f32Level() {
	case levelAVX2:
		// Packed 8-lane groups, then 4-lane SSE on the next full group
		// (its mask bits shifted into place), then the scalar tail.
		n := len(v) &^ 7
		var m uint64
		if n > 0 {
			m = fireRowBurstAVX2(&v[0], &g[0], &pay[0], &fired[0], n, bias, beta, vth)
		}
		if len(v)-n >= 4 {
			m |= fireRowBurstAsm(&v[n], &g[n], &pay[n], &fired[n], 4, bias, beta, vth) << uint(n)
			n += 4
		}
		return fireRowBurstScalar(v, g, pay, fired, n, m, bias, beta, vth)
	case levelSSE:
		n4 := len(v) &^ 3
		var m uint64
		if n4 > 0 {
			m = fireRowBurstAsm(&v[0], &g[0], &pay[0], &fired[0], n4, bias, beta, vth)
		}
		return fireRowBurstScalar(v, g, pay, fired, n4, m, bias, beta, vth)
	default:
		return fireRowBurstGeneric(v, g, pay, fired, bias, beta, vth)
	}
}

func convScatterVec(vmem, wsc []float32, taps []ConvTap, outC, b int, pv []float32) {
	// The packed forms are specialized to the serving stripe width
	// (b == 8: one YMM, or one XMM pair, per stripe, payloads pinned in
	// registers across the whole tap walk); other widths take the
	// generic walk.
	if b == 8 {
		switch f32Level() {
		case levelAVX2:
			convScatterVecAVX2(&vmem[0], &wsc[0], &taps[0], len(taps), outC, &pv[0])
			return
		case levelSSE:
			convScatterVecAsm(&vmem[0], &wsc[0], &taps[0], len(taps), outC, &pv[0])
			return
		}
	}
	if activeLevel() == levelPurego {
		convScatterVecGeneric(vmem, wsc, taps, outC, b, pv)
		return
	}
	// Other stripe widths: per-tap packed scatters (identical operations
	// — the fusion is specialized to the serving width, the arithmetic
	// is not).
	outCb := outC * b
	for _, tp := range taps {
		axpyBlockVec(vmem[int(tp.Base)*outCb:int(tp.Base)*outCb+outCb],
			wsc[tp.WOff:int(tp.WOff)+outC], pv, b, b)
	}
}

func fireRowsBurst(v, g, pay []float32, fired []uint32, masks, occ []uint64, n, b int, bias []float32, bsc, beta, vth float32) {
	if b == 8 {
		var bp *float32
		if bias != nil {
			bp = &bias[0]
		}
		switch f32Level() {
		case levelAVX2:
			fireRowsBurstAVX2(&v[0], &g[0], &pay[0], &fired[0], &masks[0], &occ[0], n, bp, bsc, beta, vth)
			return
		case levelSSE:
			fireRowsBurstAsm(&v[0], &g[0], &pay[0], &fired[0], &masks[0], &occ[0], n, bp, bsc, beta, vth)
			return
		}
	}
	if activeLevel() == levelPurego {
		fireRowsBurstGeneric(v, g, pay, fired, masks, occ, n, b, bias, bsc, beta, vth)
		return
	}
	// Other stripe widths: per-row packed fire passes through the shared
	// row sweep (identical bookkeeping to the generic form).
	fireRowsBurstLoop(v, g, pay, fired, masks, occ, n, b, bias, bsc,
		func(v, g, pay []float32, fired []uint32, bv float32) uint64 {
			return fireRowBurst(v, g, pay, fired, bv, beta, vth)
		})
}

func selectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	switch f32Level() {
	case levelAVX2:
		n := lanes &^ 3
		if n > 0 {
			selectMaxRowAVX2(&best[0], &row[0], &idx[0], n, o)
		}
		selectMaxRowScalar(best, row, idx, o, n, lanes)
	case levelSSE:
		n := lanes &^ 3
		if n > 0 {
			selectMaxRowAsm(&best[0], &row[0], &idx[0], n, o)
		}
		selectMaxRowScalar(best, row, idx, o, n, lanes)
	default:
		selectMaxRowScalar(best, row, idx, o, 0, lanes)
	}
}

func laneMaskBit(row []uint64, shift uint) uint64 {
	if activeLevel() >= levelAVX2 {
		n := len(row) &^ 3
		var m uint64
		if n > 0 {
			m = laneMaskBitAVX2(&row[0], n, uint64(63-shift))
		}
		return m | laneMaskBitScalar(row, shift, n)
	}
	// The integer bit sweep has no profitable baseline-SSE form (64-bit
	// packed shifts and compares arrived with AVX2 for YMM widths); the
	// sse tier shares the scalar loop.
	return laneMaskBitScalar(row, shift, 0)
}

func laneMaskEq(row []uint64, want uint64) uint64 {
	if activeLevel() >= levelAVX2 {
		n := len(row) &^ 3
		var m uint64
		if n > 0 {
			m = laneMaskEqAVX2(&row[0], n, want)
		}
		return m | laneMaskEqScalar(row, want, n)
	}
	return laneMaskEqScalar(row, want, 0)
}

// The float64 primitives' packed forms: avx2 packs all four 4 cells per
// op, avx512 packs them 8 cells per op; the sse tier runs the generic
// loops. A packed scatter needs the channel count to be a multiple of its
// width (an avx512 call at OutC 4 or 12 takes the avx2 form), a packed
// sweep whole groups inside one bias period, and the packed gather
// channels in fours; odd channel counts stay generic, and a population's
// sub-group tail or a map's last columns finish in the scalar loop.

func convScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	if len(taps) > 0 {
		switch lv := activeLevel(); {
		case lv >= levelAVX512 && outC&7 == 0:
			convScatterEvents64AVX512(&vmem[0], &wsc[0], &taps[0], &tapStart[0], &events[0], len(events), outC)
			return
		case lv >= levelAVX2 && outC&3 == 0:
			convScatterEvents64AVX2(&vmem[0], &wsc[0], &taps[0], &tapStart[0], &events[0], len(events), outC)
			return
		}
	}
	convScatterEvents64Generic(vmem, wsc, taps, tapStart, events, outC)
}

// convScatter64 is the per-step kernel's one-event case: the tap list is
// the whole of a one-row table.
func convScatter64(vmem, wsc []float64, taps []ConvTap, outC int, p float64) {
	span := [2]int32{0, int32(len(taps))}
	ev := [1]Event{{Payload: p}}
	convScatterEvents64(vmem, wsc, taps, span[:], ev[:], outC)
}

func convGatherPacked(outC int) bool { return outC&3 == 0 && activeLevel() >= levelAVX2 }

// convGather64 runs the packed gather over whole cell groups of every
// row, channels four at a time: on avx512 the leading 8-column groups,
// then a 4-column group by the avx2 form if one is left (a 28-wide row is
// 24 + 4); on avx2 the 4-column groups. The generic loop takes the
// columns past them.
func convGather64(v, plane, wsc []float64, outC, inC, k, ph, pw int) {
	outW := pw - k + 1
	wide, cols := 0, 0
	if convGatherPacked(outC) {
		cols = outW &^ 3
		if activeLevel() >= levelAVX512 {
			wide = outW &^ 7
		}
	}
	hw := (ph - k + 1) * outW
	for oc := 0; oc < outC && cols > 0; oc += 4 {
		if wide > 0 {
			convGather64AVX512(&v[oc*hw], &plane[0], &wsc[oc], outC, inC, k, ph, pw, wide)
		}
		if cols > wide {
			// The kernel's row strides come from pw, so starting both
			// pointers at column wide runs it on columns [wide, cols).
			convGather64AVX2(&v[oc*hw+wide], &plane[wide], &wsc[oc], outC, inC, k, ph, pw, cols-wide)
		}
	}
	convGather64Cols(v, plane, wsc, outC, inC, k, ph, pw, cols)
}

// packed64 returns the tier whose packed form takes the leading cells of
// an n-cell fire sweep, how many it takes — whole 8-cell groups on
// avx512, whole 4-cell groups on avx2 — and the bias pointer it reads.
func packed64(n int, bias []float64) (level, int, *float64) {
	var bp *float64
	if bias != nil {
		bp = &bias[0]
	}
	switch lv := activeLevel(); {
	case lv >= levelAVX512 && len(bias)&7 == 0 && n >= 8:
		return levelAVX512, n &^ 7, bp
	case lv >= levelAVX2 && len(bias)&3 == 0 && n >= 4:
		return levelAVX2, n &^ 3, bp
	}
	return levelPurego, 0, nil
}

func fireCells64(v []float64, ev []Event, bias []float64, bsc, th float64) int {
	lv, n, bp := packed64(len(v), bias)
	k := 0
	switch lv {
	case levelAVX512:
		k = fireCells64AVX512(&v[0], &ev[0], n, bp, len(bias), bsc, th)
	case levelAVX2:
		k = fireCells64AVX2(&v[0], &ev[0], n, bp, len(bias), bsc, th)
	}
	return fireCells64Scalar(v, ev, n, k, bias, bsc, th)
}

func fireCellsBurst64(v, h []float64, ev []Event, bias []float64, bsc, beta, vth float64) int {
	lv, n, bp := packed64(len(v), bias)
	k := 0
	switch lv {
	case levelAVX512:
		k = fireCellsBurst64AVX512(&v[0], &h[0], &ev[0], n, bp, len(bias), bsc, beta, vth)
	case levelAVX2:
		k = fireCellsBurst64AVX2(&v[0], &h[0], &ev[0], n, bp, len(bias), bsc, beta, vth)
	}
	return fireCellsBurst64Scalar(v, h, ev, n, k, bias, bsc, beta, vth)
}
