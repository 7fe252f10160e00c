package snn

import (
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/mathx"
)

// TestBatchMatchesSequential pins what batching may never change: for
// every input-hidden hybrid and B ∈ {1, 3, 8}, each lane of a batch of B
// distinct images must produce bit-identical per-layer spike trains
// (payloads included), per-step predictions, spike counts, and float32
// readout potentials to the same image presented alone, one image at a
// time, on a 1-lane simulator. A lane's trajectory depends only on its
// own image — never on its batchmates or the column shapes they induce —
// which is what lets serving cache, dedupe and compare lockstep outcomes
// byte for byte. (Agreement with the float64 sequential Network is the
// tolerance contract in TestBatch32MatchesSequential.)
func TestBatchMatchesSequential(t *testing.T) {
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

					// One independent 1-lane simulator per lane, with
					// distinct images.
					nL := len(proto.Layers)
					solos := make([]*BatchNetwork32, B)
					images := make([][]float64, B)
					soloEv := make([][]*coding.BatchEvents32, B) // [lane][layer+1]
					for lane := 0; lane < B; lane++ {
						solos[lane], err = NewBatchNetwork32(proto, 1)
						if err != nil {
							t.Fatalf("NewBatchNetwork32(1): %v", err)
						}
						images[lane] = equivImage(0x1A9E+uint64(lane)*131, proto.Encoder.Size())
						soloEv[lane] = make([]*coding.BatchEvents32, nL+1)
						for li := -1; li < nL; li++ {
							lane, li := lane, li
							solos[lane].AttachProbe(li, func(_ int, ev *coding.BatchEvents32) {
								soloEv[lane][li+1] = ev
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
					pot, alone := make([]float64, 4), make([]float64, 4)
					for img := 0; img < 2; img++ {
						if img == 1 {
							for lane := range images {
								images[lane] = equivImage(0xF00D+uint64(lane)*37, proto.Encoder.Size())
							}
						}
						batch.Reset(images)
						for lane := 0; lane < B; lane++ {
							solos[lane].Reset(images[lane : lane+1])
						}
						for s := 0; s < steps; s++ {
							st := batch.Step(s)
							for lane := 0; lane < B; lane++ {
								sst := solos[lane].Step(s)
								if st.InputEvents[lane] != sst.InputEvents[0] || st.HiddenSpikes[lane] != sst.HiddenSpikes[0] {
									t.Fatalf("img %d step %d lane %d: counts batch %d/%d alone %d/%d",
										img, s, lane, st.InputEvents[lane], st.HiddenSpikes[lane],
										sst.InputEvents[0], sst.HiddenSpikes[0])
								}
								if p, w := batch.Predicted(lane), solos[lane].Predicted(0); p != w {
									t.Fatalf("img %d step %d lane %d: predicted %d, alone %d", img, s, lane, p, w)
								}
								for li := 0; li <= nL; li++ {
									got := batchEv[li].AppendLane(int32(lane), nil)
									want := soloEv[lane][li].AppendLane(0, nil)
									if len(got) != len(want) {
										t.Fatalf("img %d step %d lane %d layer %d: %d vs %d events",
											img, s, lane, li-1, len(got), len(want))
									}
									for k := range want {
										if got[k] != want[k] {
											t.Fatalf("img %d step %d lane %d layer %d event %d: batch %+v alone %+v",
												img, s, lane, li-1, k, got[k], want[k])
										}
									}
								}
								pot = batch.PotentialsInto(lane, pot)
								alone = solos[lane].PotentialsInto(0, alone)
								for o := range alone {
									if pot[o] != alone[o] {
										t.Fatalf("img %d step %d lane %d: readout %d batch %v alone %v",
											img, s, lane, o, pot[o], alone[o])
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

// TestBatchNetworkRejectsUnbatchable pins the construction errors.
func TestBatchNetworkRejectsUnbatchable(t *testing.T) {
	proto := buildEquivNetwork(t, coding.DefaultConfig(coding.Phase), coding.DefaultConfig(coding.Burst), 7)
	if _, err := NewBatchNetwork32(proto, 0); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := NewBatchNetwork32(proto, MaxBatchLanes+1); err == nil {
		t.Errorf("B=%d should fail", MaxBatchLanes+1)
	}
	proto.Encoder = &coding.PoissonEncoder{SizeN: proto.Encoder.Size(), RNG: mathx.NewRNG(1)}
	if _, err := NewBatchNetwork32(proto, 4); err == nil {
		t.Error("stream-stateful encoder should not be batchable")
	}
}
