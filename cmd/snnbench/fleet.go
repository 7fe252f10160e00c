package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/fleet"
	"burstsnn/internal/mathx"
	"burstsnn/internal/serve"
)

// The fleet benchmark mode (-fleet FILE) measures multi-core saturation
// through the sharded fleet tier: the same fixed offered load — a
// closed loop of concurrent clients cycling distinct images — is driven
// through in-process fleets of increasing shard count (powers of two,
// 1 → NumCPU, always at least {1, 2}), and each point records the
// saturation throughput and client-observed latency percentiles. The
// shards=1 point doubles as the non-fleet baseline (single-shard
// routing is an invariant pass-through), so speedupVs1 is the scale-out
// factor the fleet tier actually buys on this machine. On a single-core
// runner the sweep still exercises the multi-shard routing plane, but
// no speedup is expected (or gated) there — the ≥1.6×@4 acceptance
// number is a multi-core CI measurement.
//
// Bench shards run with the response cache disabled and one replica
// each, so every request simulates and added shards add compute, not
// cache capacity.

type fleetPoint struct {
	Shards int `json:"shards"`
	// ImagesPerSec is completed requests over the measure window; the
	// percentiles are client-observed end-to-end latency.
	ImagesPerSec float64 `json:"imagesPerSec"`
	P50Ms        float64 `json:"p50Ms"`
	P99Ms        float64 `json:"p99Ms"`
	Completed    int64   `json:"completed"`
	Shed         int64   `json:"shed"`
	// SpeedupVs1 is this point's throughput over the shards=1 point's.
	SpeedupVs1 float64 `json:"speedupVs1"`
}

type fleetArtifact struct {
	Schema    string `json:"schema"`
	When      string `json:"when"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Model     string `json:"model"`
	// Clients is the fixed closed-loop offered load every point sees;
	// MeasureSec the per-point measure window after warmup.
	Clients    int          `json:"clients"`
	MeasureSec float64      `json:"measureSec"`
	Points     []fleetPoint `json:"points"`
}

// fleetShardCounts is the sweep: powers of two from 1 up to NumCPU,
// floored at {1, 2} so single-core machines still measure the
// multi-shard routing plane.
func fleetShardCounts() []int {
	counts := []int{1}
	for n := 2; n <= runtime.NumCPU(); n *= 2 {
		counts = append(counts, n)
	}
	if len(counts) == 1 {
		counts = append(counts, 2)
	}
	return counts
}

func runFleetBench(outPath string) error {
	fmt.Fprintln(os.Stderr, "fleet: training MLP on synthetic digits...")
	set := dataset.SynthDigits(dataset.DigitsConfig{
		TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
	})
	net, err := dnn.Build(dnn.MLP(1, 28, 28, []int{32}, 10), mathx.NewRNG(7))
	if err != nil {
		return err
	}
	dnn.Train(net, set, dnn.NewAdam(0.01), dnn.TrainConfig{
		Epochs: 8, BatchSize: 32, Seed: 5,
	})

	// 512 distinct images cycled by every point; the shards run with the
	// response cache off, so every request simulates.
	images := make([][]float64, 512)
	for i := range images {
		rng := mathx.NewRNG(uint64(i)*2654435761 + 99)
		img := make([]float64, 28*28)
		for p := range img {
			img[p] = rng.Float64()
		}
		images[i] = img
	}

	clients := 4 * runtime.NumCPU()
	if clients < 8 {
		clients = 8
	}
	const (
		warmup  = 300 * time.Millisecond
		measure = 1500 * time.Millisecond
	)
	art := fleetArtifact{
		Schema:     "burstsnn/bench-fleet/v1",
		When:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Model:      "MLP-784-32-10/phase-burst",
		Clients:    clients,
		MeasureSec: measure.Seconds(),
	}
	fmt.Fprintf(os.Stderr, "fleet: sweep %v shards, %d closed-loop clients, %.1fs measure/point\n",
		fleetShardCounts(), clients, measure.Seconds())

	for _, shards := range fleetShardCounts() {
		pt, err := measureFleetPoint(net, set, images, shards, clients, warmup, measure)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		if len(art.Points) > 0 && art.Points[0].ImagesPerSec > 0 {
			pt.SpeedupVs1 = pt.ImagesPerSec / art.Points[0].ImagesPerSec
		} else if pt.Shards == 1 {
			pt.SpeedupVs1 = 1
		}
		art.Points = append(art.Points, pt)
		fmt.Fprintf(os.Stderr, "fleet: shards=%-2d %8.1f img/s  p50 %6.2fms  p99 %6.2fms  (%d done, %d shed, %.2fx vs 1)\n",
			pt.Shards, pt.ImagesPerSec, pt.P50Ms, pt.P99Ms, pt.Completed, pt.Shed, pt.SpeedupVs1)
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet: wrote %s\n", outPath)
	return nil
}

// measureFleetPoint drives the fixed offered load through one shard
// count and measures saturation throughput + latency percentiles.
func measureFleetPoint(net *dnn.Network, set *dataset.Set, images [][]float64,
	shards, clients int, warmup, measure time.Duration) (fleetPoint, error) {
	factory := func(shard int) (fleet.Worker, error) {
		srv := serve.New(serve.Config{
			ResponseCacheSize: -1, // every request simulates
			MaxDelay:          -1, // dispatch on drain: measure compute, not the forming timer
		})
		_, err := srv.Register(serve.ModelConfig{
			Name:        "digits",
			Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
			Steps:       96,
			Replicas:    1,
			NormSamples: 32,
		}, net, set.Train)
		if err != nil {
			return nil, err
		}
		return fleet.NewInprocWorker(srv), nil
	}
	f, err := fleet.New(fleet.Config{Shards: shards, HealthInterval: -1}, factory)
	if err != nil {
		return fleetPoint{}, err
	}
	defer func() { _ = f.Close() }()

	var (
		recording atomic.Bool
		completed atomic.Int64
		shed      atomic.Int64
		latMu     sync.Mutex
		latencies []float64 // ms, measure window only
	)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []float64
			for {
				select {
				case <-stop:
					latMu.Lock()
					latencies = append(latencies, local...)
					latMu.Unlock()
					return
				default:
				}
				img := images[int(seq.Add(1))%len(images)]
				began := time.Now()
				_, err := f.Classify(ctx, serve.ClassifyRequest{Model: "digits", Image: img})
				if !recording.Load() {
					continue
				}
				switch {
				case err == nil:
					completed.Add(1)
					local = append(local, float64(time.Since(began).Microseconds())/1e3)
				default:
					// Saturation sheds are part of the operating point, not
					// a failure; anything else would surface in the counts.
					shed.Add(1)
				}
			}
		}()
	}
	time.Sleep(warmup)
	recording.Store(true)
	start := time.Now()
	time.Sleep(measure)
	recording.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	pt := fleetPoint{
		Shards:    shards,
		Completed: completed.Load(),
		Shed:      shed.Load(),
	}
	pt.ImagesPerSec = float64(pt.Completed) / elapsed.Seconds()
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		pt.P50Ms = latencies[n/2]
		pt.P99Ms = latencies[min(n-1, n*99/100)]
	}
	return pt, nil
}
