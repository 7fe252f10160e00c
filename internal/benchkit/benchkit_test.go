package benchkit

import (
	"math"
	"slices"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/snn"
)

// TestLanesMatchStandaloneLayers pins the batched workloads to what they
// stand for: after k Lanes.Step calls, lane i's layer emits, on the next
// step, exactly the events of a standalone canonical layer stepped on
// in[i] the same k times — so a lane shares no state with its
// batchmates — and the lanes do not all see one stream.
func TestLanesMatchStandaloneLayers(t *testing.T) {
	const b, k = HotpathBatchB, 5
	cases := []struct {
		name       string
		batch      func(int) (Lanes, [][]coding.Event)
		standalone func() snn.Layer
	}{
		{"conv", HotpathConvBatch, func() snn.Layer { l, _ := HotpathConv(); return l }},
		{"dense", HotpathDenseBatch, func() snn.Layer { l, _ := HotpathDense(); return l }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lanes, in := c.batch(b)
			if len(lanes) != b || len(in) != b {
				t.Fatalf("%d lanes and %d streams, want %d of each", len(lanes), len(in), b)
			}
			distinct := false
			for i := 1; i < b; i++ {
				if !slices.Equal(in[i], in[0]) {
					distinct = true
				}
			}
			if !distinct {
				t.Fatal("every lane has the same input stream")
			}
			for step := 0; step < k; step++ {
				lanes.Step(step, 1, b, in)
			}
			emitted := 0
			for i := range lanes {
				ref := c.standalone()
				for step := 0; step < k; step++ {
					ref.Step(step, 1, in[i])
				}
				want := ref.Step(k, 1, in[i])
				got := lanes[i].Step(k, 1, in[i])
				if len(got) != len(want) {
					t.Fatalf("lane %d: %d events, standalone layer %d", i, len(got), len(want))
				}
				for j := range want {
					if got[j].Index != want[j].Index ||
						math.Float64bits(got[j].Payload) != math.Float64bits(want[j].Payload) {
						t.Fatalf("lane %d event %d: %+v, standalone layer %+v", i, j, got[j], want[j])
					}
				}
				emitted += len(got)
			}
			if emitted == 0 {
				t.Fatalf("no lane emitted an event at step %d; the comparison checked nothing", k)
			}
		})
	}
}
