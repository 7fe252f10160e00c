package main

import (
	"testing"

	"burstsnn/internal/kernels"
)

// CI's per-tier jobs run only when `snnbench -probe-level <tier>` exits 0,
// so the probe must accept every tier the ladder offers and nothing else.
func TestProbeLevel(t *testing.T) {
	for _, lv := range kernels.Available() {
		if err := probeLevel(lv); err != nil {
			t.Errorf("probeLevel(%q) = %v, want nil", lv, err)
		}
	}
	for _, bad := range []string{"bogus", ""} {
		if err := probeLevel(bad); err == nil {
			t.Errorf("probeLevel(%q) = nil, want an error", bad)
		}
	}
}
