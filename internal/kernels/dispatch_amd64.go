//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"sync/atomic"
)

// The amd64 build carries three dispatch tiers (see level.go). They
// select only the float64 primitives' bodies; the float32 primitives are
// the same Go loops on every tier and build (kernels.go):
//
//   - purego: the generic Go loops, shared with the purego build, and
//     what a CPU without AVX2 runs;
//   - avx2: AVX2 assembly (kernels64_amd64.s), 4 float64 cells per op,
//     gated on CPUID (AVX2 + OSXSAVE with YMM state enabled in XCR0);
//   - avx512: the float64 conv scatter, conv gathers and fire sweeps on
//     ZMM registers (kernels64_amd64.s), gated on AVX512F and BMI2 with
//     opmask and ZMM state enabled in XCR0.
//
// The tier is detected once at startup (hand-rolled CPUID — no
// dependencies) and stored in an atomic so ForceLevel is safe against
// concurrent kernel calls; the per-call load is an ordinary x86 read.
// The assembly kernels take raw pointers; the exported wrappers in
// kernels64.go have already validated lengths.

type level int32

const (
	levelPurego level = iota
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{LevelPurego, LevelAVX2, LevelAVX512}

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
// ZMM16–31), and BMI2 (leaf 7 EBX[8]: the masked gather's SHRX and
// BZHI), which every AVX512F core has. A CPU short of AVX2 runs the
// purego tier.
func detectLevel() level {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return levelPurego
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return levelPurego
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return levelPurego
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2, bmi2, avx512f = 1 << 5, 1 << 8, 1 << 16
	if b7&avx2 == 0 {
		return levelPurego
	}
	if b7&avx512f == 0 || b7&bmi2 == 0 || xcr0&0xe6 != 0xe6 {
		return levelAVX2
	}
	return levelAVX512
}

func activeLevel() level { return level(active.Load()) }

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

// AVX2 and AVX512 float64 kernels (kernels64_amd64.s).

//go:noescape
func convScatterEvents64AVX2(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC, inputs int) bool

//go:noescape
func convScatterEvents64AVX512(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC, inputs int) bool

//go:noescape
func convGather64AVX2(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)

//go:noescape
func convGather64AVX512(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)

//go:noescape
func convMaskGather64AVX512(v *float64, rows *uint64, wp, bias *float64, bsc float64, outC, inC, k, ph, pw int)

//go:noescape
func fireCells64AVX2(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int

//go:noescape
func fireCellsBurst64AVX2(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int

//go:noescape
func fireCells64AVX512(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int

//go:noescape
func fireCellsBurst64AVX512(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int

// The float64 primitives' packed forms: avx2 packs all four 4 cells per
// op, avx512 packs them 8 cells per op. A packed scatter needs the channel count to be a multiple of its
// width (an avx512 call at OutC 4 or 12 takes the avx2 form), a packed
// sweep whole groups inside one bias period, and the packed gather
// channels in fours; odd channel counts stay generic, and a population's
// sub-group tail or a map's last columns finish in the scalar loop.

func convScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) bool {
	if len(taps) > 0 {
		inputs := len(tapStart) - 1
		switch lv := activeLevel(); {
		case lv >= levelAVX512 && outC&7 == 0:
			return convScatterEvents64AVX512(&vmem[0], &wsc[0], &taps[0], &tapStart[0], &events[0], len(events), outC, inputs)
		case lv >= levelAVX2 && outC&3 == 0:
			return convScatterEvents64AVX2(&vmem[0], &wsc[0], &taps[0], &tapStart[0], &events[0], len(events), outC, inputs)
		}
	}
	return convScatterEvents64Generic(vmem, wsc, taps, tapStart, events, outC)
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

func convMaskGatherPacked(outC int) bool { return outC&7 == 0 && activeLevel() >= levelAVX512 }

// convMaskGather64 runs the avx512 masked gather over whole 8-channel
// groups, every column of the map (a row's last partial group under a
// lane mask); the generic loop takes the channels past them.
func convMaskGather64(v []float64, rows []uint64, wp, bias []float64, bsc float64, outC, inC, k, ph, pw int) {
	packed := 0
	if activeLevel() >= levelAVX512 {
		packed = outC &^ 7
	}
	hw := (ph - k + 1) * (pw - k + 1)
	for oc := 0; oc < packed; oc += 8 {
		var bp *float64
		if bias != nil {
			bp = &bias[oc]
		}
		convMaskGather64AVX512(&v[oc*hw], &rows[0], &wp[oc], bp, bsc, outC, inC, k, ph, pw)
	}
	convMaskGather64Chans(v, rows, wp, bias, bsc, outC, inC, k, ph, pw, packed)
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
