package snn

import (
	"math"
	"reflect"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
)

// The cross-tier conformance suite: TestBatch32MatchesSequential pins
// the float32 plane to the float64 sequential simulator under whichever
// dispatch tier is active, with a *tolerance* contract on the readout.
// This suite pins the tiers to EACH OTHER, and the contract here is
// strictly stronger: every available tier (purego, avx2, avx512) must
// produce bit-identical trajectories — the same event columns (indices,
// lane sets, payload bits), the same per-lane spike counts, the same
// predictions, and bit-equal float32 readout potentials at every step of
// the full 24-hybrid × B∈{1,3,8} corpus. The tiers perform the same
// rounded float32 operations by construction (no FMA contraction — see
// internal/kernels), so any divergence is a kernel bug, not rounding.

// tierStep is one lockstep step's full observable state under one tier.
type tierStep struct {
	In, Hid []int      // per-lane input events / hidden spikes
	Preds   []int      // per-lane readout argmax (PredictedAll)
	Events  [][]uint64 // per stage: flattened columns (index, then lane<<32|payload bits)
	Pots    [][]uint32 // per lane: float32 bit patterns of the readout
}

func flattenEvents32(ev *coding.BatchEvents32) []uint64 {
	flat := make([]uint64, 0, len(ev.Index)+len(ev.Lane))
	for c := range ev.Index {
		flat = append(flat, uint64(ev.Index[c]))
		for k := ev.Start[c]; k < ev.Start[c+1]; k++ {
			flat = append(flat, uint64(ev.Lane[k])<<32|uint64(math.Float32bits(ev.Payload[k])))
		}
	}
	return flat
}

// runTierTrace presents two batches of images through a fresh float32
// lockstep simulator under the active tier and records every step.
func runTierTrace(t *testing.T, proto *Network, B, steps int) []tierStep {
	t.Helper()
	batch, err := NewBatchNetwork32(proto, B)
	if err != nil {
		t.Fatalf("NewBatchNetwork32: %v", err)
	}
	nL := len(proto.Layers)
	stepEv := make([]*coding.BatchEvents32, nL+1)
	for li := -1; li < nL; li++ {
		li := li
		batch.AttachProbe(li, func(_ int, ev *coding.BatchEvents32) {
			stepEv[li+1] = ev
		})
	}
	var trace []tierStep
	pot := make([]float64, batch.Classes())
	preds := make([]int, B)
	for img := 0; img < 2; img++ {
		images := make([][]float64, B)
		for lane := range images {
			seed := 0x1A9E + uint64(lane)*131
			if img == 1 {
				seed = 0xF00D + uint64(lane)*37
			}
			images[lane] = equivImage(seed, proto.Encoder.Size())
		}
		batch.Reset(images)
		for s := 0; s < steps; s++ {
			st := batch.Step(s)
			ts := tierStep{
				In:     append([]int(nil), st.InputEvents...),
				Hid:    append([]int(nil), st.HiddenSpikes...),
				Preds:  append([]int(nil), batch.PredictedAll(preds)...),
				Events: make([][]uint64, nL+1),
				Pots:   make([][]uint32, B),
			}
			for li := 0; li <= nL; li++ {
				ts.Events[li] = flattenEvents32(stepEv[li])
			}
			for lane := 0; lane < B; lane++ {
				// PredictedAll must agree with the per-slot walk on every
				// tier (same first-wins rule through the packed blend).
				if p := batch.Predicted(lane); p != ts.Preds[lane] {
					t.Fatalf("img %d step %d lane %d: PredictedAll %d, Predicted %d (tier %s)",
						img, s, lane, ts.Preds[lane], p, kernels.ActiveLevel())
				}
				pot = batch.PotentialsInto(lane, pot)
				bits := make([]uint32, len(pot))
				for o, v := range pot {
					bits[o] = math.Float32bits(float32(v))
				}
				ts.Pots[lane] = bits
			}
			trace = append(trace, ts)
		}
	}
	return trace
}

// TestBatch32CrossTierConformance runs the full equivalence corpus once
// per available dispatch tier and requires bit-identical trajectories
// across every tier pair (all tiers are compared against the narrowest,
// which makes every pair transitively identical).
func TestBatch32CrossTierConformance(t *testing.T) {
	levels := kernels.Available()
	if len(levels) < 2 {
		t.Skipf("single-tier build (%v): cross-tier conformance needs the amd64 assembly build", levels)
	}
	defer kernels.ForceLevel("")

	inputs := []coding.Scheme{coding.Real, coding.Rate, coding.Phase, coding.TTFS}
	leaky := func(s coding.Scheme) coding.Config {
		cfg := coding.DefaultConfig(s)
		cfg.Leak = 0.05
		return cfg
	}
	hiddens := []struct {
		name string
		cfg  coding.Config
	}{
		{"rate", coding.DefaultConfig(coding.Rate)},
		{"phase", coding.DefaultConfig(coding.Phase)},
		{"burst", coding.DefaultConfig(coding.Burst)},
		{"ttfs", coding.DefaultConfig(coding.TTFS)},
		{"rate-leaky", leaky(coding.Rate)},
		{"burst-leaky", leaky(coding.Burst)},
	}
	const steps = 20
	for _, B := range []int{1, 3, 8} {
		for _, in := range inputs {
			for hi, hid := range hiddens {
				name := in.String() + "-" + hid.name
				t.Run(name+"/B="+string(rune('0'+B)), func(t *testing.T) {
					inCfg := coding.DefaultConfig(in)
					proto := buildEquivNetwork(t, inCfg, hid.cfg, 0xBA7C0+uint64(in)*64+uint64(hi)*8+uint64(B))
					var ref []tierStep
					for li, lv := range levels {
						if err := kernels.ForceLevel(lv); err != nil {
							t.Fatal(err)
						}
						trace := runTierTrace(t, proto, B, steps)
						if li == 0 {
							ref = trace
							continue
						}
						for s := range ref {
							if !reflect.DeepEqual(trace[s], ref[s]) {
								t.Fatalf("step %d (of 2×%d): tier %s diverged from %s\n%s: %+v\n%s: %+v",
									s, steps, lv, levels[0], lv, trace[s], levels[0], ref[s])
							}
						}
					}
				})
			}
		}
	}
}
