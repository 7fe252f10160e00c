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

func axpyBlock(dst, row []float32, p float32, b, lanes int) {
	axpyBlockGeneric(dst, row, p, b, lanes)
}

func axpyBlockVec(dst, row, pv []float32, b, lanes int) {
	axpyBlockVecGeneric(dst, row, pv, b, lanes)
}

func scaleAdd(dst []float32, x float32) {
	scaleAddGeneric(dst, x)
}

func fireRow(v []float32, th float32) uint64 {
	return fireRowGeneric(v, th)
}

func fireRowBias(v []float32, bias, th float32) uint64 {
	return fireRowBiasGeneric(v, bias, th)
}

func fireRowBurst(v, g, pay []float32, fired []uint32, bias, beta, vth float32) uint64 {
	return fireRowBurstGeneric(v, g, pay, fired, bias, beta, vth)
}

func convScatterVec(vmem, wsc []float32, taps []ConvTap, outC, b int, pv []float32) {
	convScatterVecGeneric(vmem, wsc, taps, outC, b, pv)
}

func fireRowsBurst(v, g, pay []float32, fired []uint32, masks, occ []uint64, n, b int, bias []float32, bsc, beta, vth float32) {
	fireRowsBurstGeneric(v, g, pay, fired, masks, occ, n, b, bias, bsc, beta, vth)
}

func selectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	selectMaxRowScalar(best, row, idx, o, 0, lanes)
}

func laneMaskBit(row []uint64, shift uint) uint64 {
	return laneMaskBitScalar(row, shift, 0)
}

func laneMaskEq(row []uint64, want uint64) uint64 {
	return laneMaskEqScalar(row, want, 0)
}

func convScatterEvents64(vmem, wsc []float64, taps []ConvTap, tapStart []int32, events []Event, outC int) {
	convScatterEvents64Generic(vmem, wsc, taps, tapStart, events, outC)
}

func convScatter64(vmem, wsc []float64, taps []ConvTap, outC int, p float64) {
	convScatter64Generic(vmem, wsc, taps, outC, p)
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
