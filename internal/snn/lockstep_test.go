package snn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
)

// The lockstep suites. Serving runs B requests at once on B
// weight-sharing clones of one prototype network (serve.Pool), one
// replica runs a microbatch image after image, and the benchmark's batch
// rungs step B clones of one layer side by side (benchkit.Lanes). All of
// that relies on one property: a clone's trajectory depends only on its
// own image — never on the clones stepped beside it, on which of them
// stop early, on what the clone ran before its last Reset, or on the
// kernel tier. These suites pin it over the equivalence corpus (4 input
// codings × 6 hidden configs × B ∈ {1, 3, 8}), comparing every layer's
// events (indices and payload bits), the per-step spike counts and
// prediction, and the readout potentials' bits. They keep the names of
// the suites that pinned the same property for the retired float32
// lockstep simulator's lanes.

// equivHidden is one hidden-layer config of the equivalence corpus.
type equivHidden struct {
	name string
	cfg  coding.Config
}

var equivInputs = []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS}

func equivHiddens() []equivHidden {
	leaky := func(s coding.Scheme) coding.Config {
		cfg := coding.DefaultConfig(s)
		cfg.Leak = 0.05
		return cfg
	}
	return []equivHidden{
		{"rate", coding.DefaultConfig(coding.Rate)},
		{"phase", coding.DefaultConfig(coding.Phase)},
		{"burst", coding.DefaultConfig(coding.Burst)},
		{"ttfs", coding.DefaultConfig(coding.TTFS)},
		{"rate-leaky", leaky(coding.Rate)},
		{"burst-leaky", leaky(coding.Burst)},
	}
}

// forEachEquivCase runs fn as one subtest per corpus case, named
// "<input>-<hidden>/B=<B>", with the case's prototype network.
func forEachEquivCase(t *testing.T, fn func(t *testing.T, proto *Network, B int)) {
	for _, B := range []int{1, 3, 8} {
		for _, in := range equivInputs {
			for hi, hid := range equivHiddens() {
				name := in.String() + "-" + hid.name
				t.Run(name+"/B="+string(rune('0'+B)), func(t *testing.T) {
					proto := buildEquivNetwork(t, coding.DefaultConfig(in), hid.cfg, 0xBA7C0+uint64(in)*64+uint64(hi)*8+uint64(B))
					fn(t, proto, B)
				})
			}
		}
	}
}

// laneStep is everything one network shows of one step.
type laneStep struct {
	In, Hid, Pred int
	Events        [][]coding.Event // per stage: the input, then each layer
	Pots          []uint64         // readout potentials' bits
}

// tracer records a network's observable state step by step.
type tracer struct {
	net *Network
	ev  [][]coding.Event
}

func newTracer(net *Network) *tracer {
	tr := &tracer{net: net, ev: make([][]coding.Event, len(net.Layers)+1)}
	for li := -1; li < len(net.Layers); li++ {
		li := li
		net.AttachProbe(li, func(_ int, events []coding.Event) {
			tr.ev[li+1] = append(tr.ev[li+1][:0], events...)
		})
	}
	return tr
}

func (tr *tracer) step(s int) laneStep {
	st := tr.net.Step(s)
	ls := laneStep{In: st.InputEvents, Hid: st.HiddenSpikes, Pred: st.Predicted, Events: make([][]coding.Event, len(tr.ev))}
	for i, ev := range tr.ev {
		ls.Events[i] = append([]coding.Event(nil), ev...)
	}
	for _, v := range tr.net.Output.Potentials() {
		ls.Pots = append(ls.Pots, math.Float64bits(v))
	}
	return ls
}

// diffStep describes the first difference between two steps, or returns
// "" when they are bit-identical.
func diffStep(got, want laneStep) string {
	if got.In != want.In || got.Hid != want.Hid {
		return fmt.Sprintf("counts %d/%d, want %d/%d", got.In, got.Hid, want.In, want.Hid)
	}
	if got.Pred != want.Pred {
		return fmt.Sprintf("predicted %d, want %d", got.Pred, want.Pred)
	}
	for li := range want.Events {
		g, w := got.Events[li], want.Events[li]
		if len(g) != len(w) {
			return fmt.Sprintf("layer %d: %d events, want %d", li-1, len(g), len(w))
		}
		for k := range w {
			if g[k].Index != w[k].Index || math.Float64bits(g[k].Payload) != math.Float64bits(w[k].Payload) {
				return fmt.Sprintf("layer %d event %d: %+v, want %+v", li-1, k, g[k], w[k])
			}
		}
	}
	for o := range want.Pots {
		if got.Pots[o] != want.Pots[o] {
			return fmt.Sprintf("readout %d: %v, want %v", o,
				math.Float64frombits(got.Pots[o]), math.Float64frombits(want.Pots[o]))
		}
	}
	return ""
}

// cloneLanes returns B weight-sharing clones of proto, each traced.
func cloneLanes(t *testing.T, proto *Network, B int) []*tracer {
	t.Helper()
	lanes := make([]*tracer, B)
	for i := range lanes {
		c, err := proto.Clone()
		if err != nil {
			t.Fatalf("clone: %v", err)
		}
		lanes[i] = newTracer(c)
	}
	return lanes
}

// presentationImages returns presentation img's B images: two distinct
// sets, so the second presentation proves Reset carries no state over.
func presentationImages(img, B, n int) [][]float64 {
	images := make([][]float64, B)
	for lane := range images {
		seed := 0x1A9E + uint64(lane)*131
		if img == 1 {
			seed = 0xF00D + uint64(lane)*37
		}
		images[lane] = equivImage(seed, n)
	}
	return images
}

// runLockstep presents two sets of B images to B clones stepped in
// lockstep and returns trace[img][lane][step].
func runLockstep(t *testing.T, proto *Network, B, steps int) [][][]laneStep {
	t.Helper()
	lanes := cloneLanes(t, proto, B)
	trace := make([][][]laneStep, 2)
	for img := range trace {
		for lane, im := range presentationImages(img, B, proto.Encoder.Size()) {
			lanes[lane].net.Reset(im)
		}
		trace[img] = make([][]laneStep, B)
		for s := 0; s < steps; s++ {
			for lane, tr := range lanes {
				trace[img][lane] = append(trace[img][lane], tr.step(s))
			}
		}
	}
	return trace
}

// TestBatchMatchesSequential: each of B clones stepped in lockstep on
// distinct images produces, step for step, bit-identical trajectories to
// a clone of its own that runs the same images alone — a lane never
// depends on its batchmates, and a second presentation after Reset
// carries nothing over from the first.
func TestBatchMatchesSequential(t *testing.T) {
	const steps = 20
	forEachEquivCase(t, func(t *testing.T, proto *Network, B int) {
		trace := runLockstep(t, proto, B, steps)
		for lane := 0; lane < B; lane++ {
			solo := cloneLanes(t, proto, 1)[0]
			for img := range trace {
				solo.net.Reset(presentationImages(img, B, proto.Encoder.Size())[lane])
				for s := 0; s < steps; s++ {
					if d := diffStep(trace[img][lane][s], solo.step(s)); d != "" {
						t.Fatalf("img %d step %d lane %d: lockstep vs alone: %s", img, s, lane, d)
					}
				}
			}
		}
	})
}

// TestBatch32MatchesSequential: the prototype itself, reused image after
// image (as one replica runs a microbatch), reproduces what its
// weight-sharing clones computed in lockstep, bit for bit — a clone is
// its prototype, and reuse after Reset equals a fresh network.
func TestBatch32MatchesSequential(t *testing.T) {
	const steps = 20
	forEachEquivCase(t, func(t *testing.T, proto *Network, B int) {
		trace := runLockstep(t, proto, B, steps)
		seq := newTracer(proto)
		for img := range trace {
			for lane, im := range presentationImages(img, B, proto.Encoder.Size()) {
				seq.net.Reset(im)
				for s := 0; s < steps; s++ {
					if d := diffStep(trace[img][lane][s], seq.step(s)); d != "" {
						t.Fatalf("img %d step %d lane %d: clone vs prototype: %s", img, s, lane, d)
					}
				}
			}
		}
	})
}

// TestBatch32LaneRetirementFuzz drives B clones in lockstep under random
// staggered retirements — lanes stop at random steps, as early exits do,
// and are reused mid-trajectory by the next round: every lane still
// stepping must match a fresh clone that has run nothing but its image.
func TestBatch32LaneRetirementFuzz(t *testing.T) {
	hybrids := []struct {
		in, hid coding.Scheme
	}{
		{coding.Phase, coding.Burst},
		{coding.Rate, coding.Rate},
		{coding.Real, coding.Phase},
		{coding.TTFS, coding.Burst},
	}
	const B, steps, rounds = 8, 24, 4
	for _, h := range hybrids {
		t.Run(h.in.String()+"-"+h.hid.String(), func(t *testing.T) {
			r := mathx.NewRNG(0x5AFE32)
			proto := buildEquivNetwork(t, coding.DefaultConfig(h.in), coding.DefaultConfig(h.hid), 0xF022)
			lanes := cloneLanes(t, proto, B)
			retired := 0
			for round := 0; round < rounds; round++ {
				n := 2 + r.Intn(B-1)
				refs := cloneLanes(t, proto, n)
				active := make([]int, n) // lane ids still stepping, in slot order
				for lane := range active {
					active[lane] = lane
					img := equivImage(uint64(round)*100+uint64(lane), proto.Encoder.Size())
					lanes[lane].net.Reset(img)
					refs[lane].net.Reset(img)
				}
				for s := 0; s < steps && len(active) > 0; s++ {
					for _, lane := range active {
						if d := diffStep(lanes[lane].step(s), refs[lane].step(s)); d != "" {
							t.Fatalf("round %d step %d lane %d: %s", round, s, lane, d)
						}
					}
					for len(active) > 0 && r.Bernoulli(0.15) {
						slot := r.Intn(len(active))
						active[slot] = active[len(active)-1]
						active = active[:len(active)-1]
						retired++
					}
				}
			}
			if retired == 0 {
				t.Fatal("no lane retired early; the fuzz exercised nothing")
			}
		})
	}
}

// TestBatch32CrossTierConformance runs the lockstep corpus once per
// available kernel dispatch tier and requires bit-identical trajectories
// across every tier pair (each tier is compared against the first, which
// makes every pair transitively identical).
func TestBatch32CrossTierConformance(t *testing.T) {
	levels := kernels.Available()
	if len(levels) < 2 {
		t.Skipf("single-tier build (%v): cross-tier conformance needs the amd64 assembly build", levels)
	}
	defer kernels.ForceLevel("")
	const steps = 20
	forEachEquivCase(t, func(t *testing.T, proto *Network, B int) {
		var ref [][][]laneStep
		for li, lv := range levels {
			if err := kernels.ForceLevel(lv); err != nil {
				t.Fatal(err)
			}
			trace := runLockstep(t, proto, B, steps)
			if li == 0 {
				ref = trace
				continue
			}
			for img := range ref {
				for lane := range ref[img] {
					for s := range ref[img][lane] {
						if d := diffStep(trace[img][lane][s], ref[img][lane][s]); d != "" {
							t.Fatalf("img %d step %d lane %d: tier %s vs %s: %s", img, s, lane, lv, levels[0], d)
						}
					}
				}
			}
		}
	})
}

// opaqueEncoder and opaqueLayer hide the Clone methods of what they wrap.
type opaqueEncoder struct{ coding.InputEncoder }

type opaqueLayer struct{ Layer }

// TestBatchNetworkRejectsUnbatchable pins Clone's construction errors: a
// network whose encoder or any layer cannot be replicated yields an
// error naming the culprit, not a replica that shares its state.
func TestBatchNetworkRejectsUnbatchable(t *testing.T) {
	proto := buildEquivNetwork(t, coding.DefaultConfig(coding.Phase), coding.DefaultConfig(coding.Burst), 7)
	if _, err := proto.Clone(); err != nil {
		t.Fatalf("cloneable network: %v", err)
	}

	enc := &Network{Encoder: opaqueEncoder{proto.Encoder}, Layers: proto.Layers, Output: proto.Output}
	if c, err := enc.Clone(); err == nil || c != nil {
		t.Errorf("non-cloneable encoder: got %v, %v; want nil and an error", c, err)
	} else if !strings.Contains(err.Error(), "encoder") {
		t.Errorf("non-cloneable encoder: error %q does not name the encoder", err)
	}

	layers := append([]Layer(nil), proto.Layers...)
	layers[2] = opaqueLayer{proto.Layers[2]}
	lay := &Network{Encoder: proto.Encoder, Layers: layers, Output: proto.Output}
	if c, err := lay.Clone(); err == nil || c != nil {
		t.Errorf("non-cloneable layer: got %v, %v; want nil and an error", c, err)
	} else if !strings.Contains(err.Error(), "layer 2") {
		t.Errorf("non-cloneable layer: error %q does not name layer 2", err)
	}
}
