package snn

import (
	"math"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/mathx"
)

// potTolerance bounds the float32 readout drift the equivalence corpus
// tolerates: |pot32 - pot64| ≤ potTolerance · max(1, |pot64|) per class
// per step. Weight rounding contributes ~6e-8 relative per product and
// float32 accumulation ~1e-7 per add over a few hundred adds, so 1e-3 is
// three orders of magnitude of headroom while still catching any real
// arithmetic divergence (a wrong payload or a dropped tap shows up as
// O(v_th) ≈ 0.1+).
const potTolerance = 1e-3

// TestBatch32MatchesSequential is the float32 plane's tolerance contract,
// pinned over the full equivalence corpus: for every input-hidden hybrid
// (4 inputs × 6 hidden configs = 24) and B ∈ {1, 3, 8}, the float32
// lockstep simulator must produce — per lane, per step — identical spike
// counts, identical event indices and timing, identical predictions, and
// readout potentials within potTolerance of B independent float64
// sequential runs. Payload values may differ only by float32 rounding.
//
// This is deliberately NOT a bit-identity test (batch lanes are
// bit-identical only to 1-lane runs: TestBatchMatchesSequential): the
// contract is empirical over this fixed corpus (deterministic weights,
// images, and steps), which is exactly the guarantee serving relies on —
// see internal/README.md "The float32 compute plane".
func TestBatch32MatchesSequential(t *testing.T) {
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
					batch, err := NewBatchNetwork32(proto, B)
					if err != nil {
						t.Fatalf("NewBatchNetwork32: %v", err)
					}

					nL := len(proto.Layers)
					seqs := make([]*Network, B)
					images := make([][]float64, B)
					seqEv := make([][][]coding.Event, B)
					for lane := 0; lane < B; lane++ {
						seqs[lane], err = proto.Clone()
						if err != nil {
							t.Fatalf("clone: %v", err)
						}
						images[lane] = equivImage(0x1A9E+uint64(lane)*131, proto.Encoder.Size())
						seqEv[lane] = make([][]coding.Event, nL+1)
						for li := -1; li < nL; li++ {
							lane, li := lane, li
							seqs[lane].AttachProbe(li, func(_ int, events []coding.Event) {
								seqEv[lane][li+1] = append(seqEv[lane][li+1][:0], events...)
							})
						}
					}
					batchEv := make([]*coding.BatchEvents32, nL+1)
					for li := -1; li < nL; li++ {
						li := li
						batch.AttachProbe(li, func(_ int, ev *coding.BatchEvents32) {
							batchEv[li+1] = ev
						})
					}

					// Two presentations, to prove batch Reset carries no
					// state across batches.
					pot := make([]float64, 4)
					for img := 0; img < 2; img++ {
						if img == 1 {
							for lane := range images {
								images[lane] = equivImage(0xF00D+uint64(lane)*37, proto.Encoder.Size())
							}
						}
						batch.Reset(images)
						for lane := 0; lane < B; lane++ {
							seqs[lane].Reset(images[lane])
						}
						for s := 0; s < steps; s++ {
							st := batch.Step(s)
							for lane := 0; lane < B; lane++ {
								sst := seqs[lane].Step(s)
								if st.InputEvents[lane] != sst.InputEvents || st.HiddenSpikes[lane] != sst.HiddenSpikes {
									t.Fatalf("img %d step %d lane %d: counts f32 %d/%d f64 %d/%d",
										img, s, lane, st.InputEvents[lane], st.HiddenSpikes[lane],
										sst.InputEvents, sst.HiddenSpikes)
								}
								if p := batch.Predicted(lane); p != sst.Predicted {
									t.Fatalf("img %d step %d lane %d: predicted %d, f64 %d", img, s, lane, p, sst.Predicted)
								}
								for li := 0; li <= nL; li++ {
									got := batchEv[li].AppendLane(int32(lane), nil)
									want := seqEv[lane][li]
									if len(got) != len(want) {
										t.Fatalf("img %d step %d lane %d layer %d: %d vs %d events",
											img, s, lane, li-1, len(got), len(want))
									}
									for k := range want {
										if got[k].Index != want[k].Index {
											t.Fatalf("img %d step %d lane %d layer %d event %d: f32 index %d f64 %d",
												img, s, lane, li-1, k, got[k].Index, want[k].Index)
										}
										// Payloads agree to float32 rounding
										// (exactly, for power-of-two payloads).
										if float32(got[k].Payload) != float32(want[k].Payload) {
											t.Fatalf("img %d step %d lane %d layer %d event %d: f32 payload %v f64 %v",
												img, s, lane, li-1, k, got[k].Payload, want[k].Payload)
										}
									}
								}
								pot = batch.PotentialsInto(lane, pot)
								for o, v := range seqs[lane].Output.Potentials() {
									bound := potTolerance * math.Max(1, math.Abs(v))
									if d := math.Abs(pot[o] - v); d > bound {
										t.Fatalf("img %d step %d lane %d: readout %d f32 %v f64 %v (|Δ|=%g > %g)",
											img, s, lane, o, pot[o], v, d, bound)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBatch32LaneRetirementFuzz drives the float32 plane's physical lane
// compaction under random staggered retirements (lanes drop out at
// random steps, as early exits do): surviving lanes must keep identical
// spike counts and predictions to their float64 sequential runs, and
// potentials within tolerance.
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
			batch, err := NewBatchNetwork32(proto, B)
			if err != nil {
				t.Fatalf("NewBatchNetwork32: %v", err)
			}
			seqs := make([]*Network, B)
			for lane := range seqs {
				if seqs[lane], err = proto.Clone(); err != nil {
					t.Fatalf("clone: %v", err)
				}
			}
			scores := make([]float64, 4)
			for round := 0; round < rounds; round++ {
				n := 2 + r.Intn(B-1)
				images := make([][]float64, n)
				for lane := range images {
					images[lane] = equivImage(uint64(round)*100+uint64(lane), proto.Encoder.Size())
					seqs[lane].Reset(images[lane])
				}
				batch.Reset(images)
				for s := 0; s < steps && batch.NumActive() > 0; s++ {
					st := batch.Step(s)
					for slot := 0; slot < batch.NumActive(); slot++ {
						lane := batch.LaneID(slot)
						sst := seqs[lane].Step(s)
						if st.InputEvents[slot] != sst.InputEvents || st.HiddenSpikes[slot] != sst.HiddenSpikes {
							t.Fatalf("round %d step %d lane %d (slot %d): counts f32 %d/%d f64 %d/%d",
								round, s, lane, slot, st.InputEvents[slot], st.HiddenSpikes[slot],
								sst.InputEvents, sst.HiddenSpikes)
						}
						if p := batch.Predicted(slot); p != sst.Predicted {
							t.Fatalf("round %d step %d lane %d: predicted %d, f64 %d", round, s, lane, p, sst.Predicted)
						}
						scores = batch.PotentialsInto(slot, scores)
						for o, v := range seqs[lane].Output.Potentials() {
							bound := potTolerance * math.Max(1, math.Abs(v))
							if d := math.Abs(scores[o] - v); d > bound {
								t.Fatalf("round %d step %d lane %d: readout %d f32 %v f64 %v", round, s, lane, o, scores[o], v)
							}
						}
					}
					for batch.NumActive() > 0 && r.Bernoulli(0.15) {
						batch.Retire(r.Intn(batch.NumActive()))
					}
				}
			}
		})
	}
}
