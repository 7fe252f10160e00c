package kernels

import "os"

// The dispatch ladder: which implementation executes a kernel call is a
// *runtime* property now, not only a build-time one. The `purego` build
// tag still selects the pure-Go-only binary (and every non-amd64
// platform gets it implicitly); the amd64 assembly build additionally
// carries every tier and picks the widest one the CPU supports at
// process start via CPUID:
//
//	purego  — the unrolled pure-Go float32 loops (always available)
//	sse     — 4-lane baseline-SSE packed kernels (every amd64 CPU)
//	avx2    — 8-lane AVX2 packed kernels (one full B=8 stripe per
//	          packed multiply-add; CPUID-gated: AVX2 + OS-enabled
//	          YMM state)
//	avx512  — the float64 conv scatter, conv gather and fire sweeps on
//	          8-cell ZMM registers; every float32 kernel runs its avx2
//	          form here (CPUID-gated: AVX512F + OS-enabled opmask and
//	          ZMM state)
//
// All tiers are semantically identical, not merely close: every element
// receives exactly the same rounded float32 operations whichever tier
// runs (the AVX2 kernels deliberately use separate packed multiply and
// add — never FMA, which would contract the two roundings into one), so
// simulations are bit-identical across tiers. The cross-tier conformance
// suites (internal/kernels fuzz tests under every tier,
// snn.TestBatch32CrossTierConformance over the full hybrid corpus) pin
// that contract on every commit.
//
// The sequential float64 engine's primitives (kernels64.go) ride the
// same ladder: avx2 packs the conv scatter, the conv gather and both fire
// sweeps 4 cells wide, avx512 packs all four 8 cells wide, purego and sse
// run the generic loops, and every tier is bit-identical to the scalar
// engine. sse has no packed float64 form on purpose: two
// cells per op would be written for a tier no benchmark host runs, so it
// would be unmeasured code.
//
// The active tier can be overridden — per process via the KERNELS_LEVEL
// environment variable, or programmatically via ForceLevel — so any tier
// can be exercised on any machine that supports it (CI runs the whole
// suite once per tier). Overriding is a process-startup decision: the
// serving layer reports the tier that was active at model registration,
// so flipping tiers mid-flight would make /metrics lie.

// Dispatch tier names, ordered narrowest to widest.
const (
	LevelPurego = "purego"
	LevelSSE    = "sse"
	LevelAVX2   = "avx2"
	LevelAVX512 = "avx512"
)

// ActiveLevel returns the dispatch tier kernel calls currently execute
// on: LevelPurego, LevelSSE, LevelAVX2 or LevelAVX512.
func ActiveLevel() string { return activeLevelName() }

// DetectedLevel returns the widest tier this machine supports (the tier
// selected at startup absent any override). On the purego build it is
// always LevelPurego.
func DetectedLevel() string { return detectedLevelName() }

// Available returns the runnable tiers on this machine and build,
// narrowest first. It is always a prefix of the full ladder
// {purego, sse, avx2, avx512} ending at DetectedLevel: a CPU that can run a
// tier can run every narrower one.
func Available() []string { return availableLevels() }

// ForceLevel pins kernel dispatch to the named tier for the rest of the
// process (or until the next call). The empty string resets to the
// startup level — DetectedLevel, or the KERNELS_LEVEL override if one
// was set — so a test that forces tiers and restores with ForceLevel("")
// cannot silently undo a CI-wide override. Requesting a tier the machine
// or build cannot run is an error and leaves the active tier unchanged.
func ForceLevel(level string) error { return forceLevel(level) }

// initLevelFromEnv applies the KERNELS_LEVEL override. Called from each
// build's dispatch init after detection so CI can exercise a forced tier
// without code changes; an unsatisfiable value panics rather than
// silently testing the wrong tier.
func initLevelFromEnv() {
	if lv, ok := os.LookupEnv("KERNELS_LEVEL"); ok && lv != "" {
		if err := forceLevel(lv); err != nil {
			panic("kernels: KERNELS_LEVEL: " + err.Error())
		}
	}
}
