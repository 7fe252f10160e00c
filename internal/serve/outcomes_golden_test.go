package serve

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/snn"
)

// goldenNet is one seeded random-weight conv network of the outcome
// golden: conv → [maxpool] → avgpool → dense → output, no training
// (allocNet is the OutC 4, gated, burst instance).
type goldenNet struct {
	name   string
	outC   int
	stride int
	gate   bool // spiking max-pool gate between conv and avg-pool
}

// goldenNets covers the conv layouts the sequential engine dispatches
// on: OutC 3 (no packed kernel: the generic loops), 4, 8 and 16 (packed
// on the avx2 tier), each with and without the max-pool gate, and one
// stride-2 geometry whose scatter table has ragged tap lists.
func goldenNets() []goldenNet {
	var nets []goldenNet
	for _, outC := range []int{3, 4, 8, 16} {
		for _, gate := range []bool{true, false} {
			name := fmt.Sprintf("c%d", outC)
			if gate {
				name += "g"
			}
			nets = append(nets, goldenNet{name: name, outC: outC, stride: 1, gate: gate})
		}
	}
	return append(nets, goldenNet{name: "c8s2", outC: 8, stride: 2})
}

func (gn goldenNet) build(t testing.TB, input, hidden coding.Scheme, seed uint64) *snn.Network {
	t.Helper()
	r := mathx.NewRNG(seed)
	randn := func(n int, std float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm(0, std)
		}
		return v
	}
	g := snn.ConvGeom{InC: 2, InH: 8, InW: 8, OutC: gn.outC, K: 3, Stride: gn.stride, Pad: 1}
	hid := coding.DefaultConfig(hidden)
	enc, err := coding.NewInputEncoder(coding.DefaultConfig(input), g.InC*g.InH*g.InW, seed)
	if err != nil {
		t.Fatalf("encoder: %v", err)
	}
	h, w := g.OutH(), g.OutW()
	layers := []snn.Layer{
		snn.NewSpikingConv(randn(g.OutC*g.InC*g.K*g.K, 0.35), randn(g.OutC, 0.05), g, hid),
	}
	if gn.gate {
		layers = append(layers, snn.NewSpikingMaxPool(g.OutC, h, w, 2))
		h, w = h/2, w/2
	}
	layers = append(layers, snn.NewSpikingAvgPool(g.OutC, h, w, 2, hid))
	denseIn := g.OutC * (h / 2) * (w / 2)
	layers = append(layers, snn.NewSpikingDense(randn(denseIn*12, 0.4), randn(12, 0.05), denseIn, 12, hid))
	return &snn.Network{
		Encoder: enc,
		Layers:  layers,
		Output:  snn.NewOutputLayer(randn(12*4, 0.5), randn(4, 0.05), 12, 4),
	}
}

// outcomeLines classifies 16 seeded images on every golden network under
// every input×hidden hybrid of the paper's grid and renders one line per
// outcome. The margin is printed as its bit pattern: the golden pins the
// readout's float64 accumulation, not a rounded view of it.
func outcomeLines(t testing.TB) string {
	var sb strings.Builder
	policy := DefaultExitPolicy(128)
	for ni, gn := range goldenNets() {
		for _, in := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase} {
			for _, hid := range []coding.Scheme{coding.Rate, coding.Phase, coding.Burst} {
				net := gn.build(t, in, hid, 0x60D0+uint64(ni)*16+uint64(in)*4+uint64(hid))
				for img := 0; img < 16; img++ {
					o := Classify(net, allocImage(0x1A6E+uint64(img), net.Encoder.Size()), policy)
					fmt.Fprintf(&sb, "%s %s-%s img=%02d pred=%d steps=%d in=%d hid=%d margin=%016x\n",
						gn.name, in, hid, img, o.Prediction, o.Steps, o.InputSpikes, o.HiddenSpikes,
						math.Float64bits(o.Margin))
				}
			}
		}
	}
	return sb.String()
}

// TestOutcomesMatchParentGolden pins the sequential engine to the
// outcomes it produced before it joined the kernel ladder (ISSUE 26):
// testdata/outcomes_parent.golden was generated at the parent commit,
// from the CHW-layout pure-Go engine, and every dispatch tier of the
// base-major engine must reproduce it exactly — prediction, steps to
// exit, spike counts and the bits of the exit margin. The file changes
// only with `go test -run OutcomesMatchParentGolden ./internal/serve
// -update`, and a change to it is a change to the paper's numbers.
func TestOutcomesMatchParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler may fuse v += w*p into an FMA on arm64, ppc64
		// and s390x; the golden holds the separately rounded amd64 bits.
		t.Skip("golden holds amd64 (non-FMA) float64 bits")
	}
	const golden = "testdata/outcomes_parent.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(outcomeLines(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	defer kernels.ForceLevel("")
	for _, lv := range kernels.Available() {
		t.Run("level="+lv, func(t *testing.T) {
			if err := kernels.ForceLevel(lv); err != nil {
				t.Fatal(err)
			}
			got := strings.Split(outcomeLines(t), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d outcome lines, golden has %d", len(got), len(want))
			}
			diffs := 0
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
					if diffs++; diffs == 10 {
						t.Fatal("more differences suppressed")
					}
				}
			}
		})
	}
}
