//go:build purego || !amd64

package kernels

import "fmt"

// The pure-Go build has a one-rung dispatch ladder: every kernel call
// runs the generic loops and the only accepted level is LevelPurego
// (so KERNELS_LEVEL=purego works identically on both builds, and
// anything else fails loudly instead of silently testing the wrong
// tier).

func init() { initLevelFromEnv() }

func activeLevelName() string   { return LevelPurego }
func detectedLevelName() string { return LevelPurego }

func availableLevels() []string { return []string{LevelPurego} }

func forceLevel(name string) error {
	switch name {
	case "", LevelPurego:
		return nil
	case LevelAVX2, LevelAVX512:
		return fmt.Errorf("kernels: dispatch level %q is not supported on this build (pure Go only)", name)
	}
	return fmt.Errorf("kernels: unknown dispatch level %q (want one of %q)",
		name, []string{LevelPurego, LevelAVX2, LevelAVX512})
}

func convScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	convScatterEvents64Generic(vmem, wsc, taps, tapStart, events, outC)
}

func convGatherPacked(outC int) bool { return false }

func convGather64(v, plane, wsc []float64, outC, inC, k, ph, pw int) {
	convGather64Cols(v, plane, wsc, outC, inC, k, ph, pw, 0)
}

func fireCells64(v []float64, ev []Event, bias []float64, bsc, th float64) int {
	return fireCells64Scalar(v, ev, 0, 0, bias, bsc, th)
}

func fireCellsBurst64(v, h []float64, ev []Event, bias []float64, bsc, beta, vth float64) int {
	return fireCellsBurst64Scalar(v, h, ev, 0, 0, bias, bsc, beta, vth)
}
