package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"burstsnn/internal/benchkit"
	"burstsnn/internal/coding"
	"burstsnn/internal/experiments"
	"burstsnn/internal/fleet"
	"burstsnn/internal/kernels"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// The ladder walks one single caller up through every boundary of the
// system on fixed images — kernel primitive, layer step, Network.Run,
// engine, batcher, server, HTTP, fleet — timing calls into public
// functions only. Each rung reports ns (and, where the path is meant to
// be allocation-free or nearly so, heap allocations) per operation; the
// *_overhead_* metrics are the delta a rung adds over the one below.
// Rungs that are differenced are timed interleaved (timeRungs), so that
// a drift in host speed lands on both sides of the subtraction.

const (
	// rungBudget is how long one rung is timed.
	rungBudget = 200 * time.Millisecond
	// ladderImages is the fixed image set: the head of the model's own
	// test split, so the ladder does not depend on the run's seed.
	ladderImages = 64
)

// timeOp calls fn repeatedly for about budget and returns the mean
// wall-clock ns and heap allocations per call. Calls run in doubling
// batches so that reading the clock is not part of a nanosecond-scale
// operation's cost.
func timeOp(budget time.Duration, fn func()) (ns, allocs float64) {
	fn() // reach steady state: lazy buffers, cache promotions
	fn()
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	calls, batch := 0, 1
	start := time.Now()
	var elapsed time.Duration
	for elapsed < budget {
		batchStart := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if time.Since(batchStart) < time.Millisecond {
			batch *= 2
		}
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(calls), float64(ms.Mallocs-mallocs) / float64(calls)
}

// timeRungs times several rungs over the same n operands, one full pass
// of a rung after another in rotation until each has had about budget,
// after one untimed pass of each (lazy buffers, cache promotions). Whole
// passes matter: the operands are images that take different numbers of
// steps. It returns each rung's mean ns and heap allocations per call.
func timeRungs(budget time.Duration, n int, rungs ...func(i int)) (ns, allocs []float64) {
	ns, allocs = make([]float64, len(rungs)), make([]float64, len(rungs))
	for _, rung := range rungs {
		for i := 0; i < n; i++ {
			rung(i)
		}
	}
	var ms runtime.MemStats
	passes := 0
	for start := time.Now(); time.Since(start) < budget*time.Duration(len(rungs)); passes++ {
		for r, rung := range rungs {
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			began := time.Now()
			for i := 0; i < n; i++ {
				rung(i)
			}
			ns[r] += float64(time.Since(began))
			runtime.ReadMemStats(&ms)
			allocs[r] += float64(ms.Mallocs - mallocs)
		}
	}
	for r := range rungs {
		ns[r] /= float64(passes * n)
		allocs[r] /= float64(passes * n)
	}
	return ns, allocs
}

func f32s(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// ladder measures every rung and returns the per-layer metrics it owns.
// modelDir holds the trained model (the proc workers load it from
// there); workerBin is the prebuilt snnserve.
func ladder(ctx context.Context, m *experiments.Model, modelDir, workerBin string) (map[string]float64, error) {
	out := map[string]float64{}
	ladderKernels(out)
	ladderLayers(out)
	ladderObs(out)

	images := make([][]float64, ladderImages)
	for i := range images {
		images[i] = m.Set.Test[i].Image
	}
	rep, policy, err := newOracle(m)
	if err != nil {
		return nil, err
	}
	ladderCoding(out, rep, images)
	if err := ladderSimulatePath(ctx, out, m, rep, policy, images); err != nil {
		return nil, err
	}
	if err := ladderHitPath(ctx, out, m, modelDir, workerBin, images); err != nil {
		return nil, err
	}
	if err := ladderCoreScaling(ctx, out, modelDir); err != nil {
		return nil, err
	}
	return out, nil
}

// ladderKernels times the float32 block primitives on operands shaped by
// the internal/benchkit canonical conv layer (16 output channels, 3×3
// taps, 16×16 map) at the serving lane width.
func ladderKernels(out map[string]float64) {
	g, b := benchkit.HotpathConvGeom, benchkit.HotpathBatchB
	taps := g.K * g.K
	weights := f32s(benchkit.Randn(taps*g.OutC, 0.2, 1))

	stripe := make([]float32, g.OutC*b)
	out["kernels.axpy_block_ns"], _ = timeOp(rungBudget, func() {
		kernels.AxpyBlock(stripe, weights[:g.OutC], 0.5, b, b)
	})

	// One event column at the centre of the map: K×K taps, each updating
	// an OutC×B block of the base-major accumulator.
	vmem := make([]float32, g.OutH()*g.OutW()*g.OutC*b)
	table := make([]kernels.ConvTap, 0, taps)
	for ky := 0; ky < g.K; ky++ {
		for kx := 0; kx < g.K; kx++ {
			base := (g.OutH()/2+ky-1)*g.OutW() + g.OutW()/2 + kx - 1
			table = append(table, kernels.ConvTap{WOff: int32(len(table) * g.OutC), Base: int32(base)})
		}
	}
	payload := make([]float32, b)
	for i := range payload {
		payload[i] = 0.25
	}
	out["kernels.conv_scatter_vec_ns"], _ = timeOp(rungBudget, func() {
		kernels.ConvScatterVec(vmem, weights, table, g.OutC, b, payload)
	})
	// Computed from operand sizes, not measured: per tap one weight row
	// read and one accumulator block read and written, plus the tap table
	// and the payload vector, 4 bytes an element (8 a table entry).
	out["kernels.conv_scatter_bytes"] = float64(taps*(4*g.OutC+2*4*g.OutC*b+8) + 4*b)

	// The whole population's threshold sweep for one step.
	n := g.OutC * g.OutH() * g.OutW()
	v := f32s(benchkit.Randn(n*b, 0.3, 2))
	gain := make([]float32, n*b)
	for i := range gain {
		gain[i] = 1
	}
	pay := make([]float32, n*b)
	fired := make([]uint32, n*b)
	masks := make([]uint64, n)
	occ := make([]uint64, (n+63)/64)
	bias := f32s(benchkit.Randn(n, 0.05, 3))
	cfg := coding.DefaultConfig(coding.Burst)
	out["kernels.fire_rows_burst_ns"], _ = timeOp(rungBudget, func() {
		kernels.FireRowsBurst(v, gain, pay, fired, masks, occ, n, b, bias, 1, float32(cfg.Beta), float32(cfg.VTh))
	})
}

// ladderLayers times one step of the benchkit canonical conv and dense
// layers, sequential and 8-lane batched.
func ladderLayers(out map[string]float64) {
	conv, convIn := benchkit.HotpathConv()
	dense, denseIn := benchkit.HotpathDense()
	t := 0
	out["snn.conv_step_ns"], _ = timeOp(rungBudget, func() { conv.Step(t, 1, convIn); t++ })
	out["snn.dense_step_ns"], _ = timeOp(rungBudget, func() { dense.Step(t, 1, denseIn); t++ })

	const b = benchkit.HotpathBatchB
	bconv, bconvIn := benchkit.HotpathConvBatch(b)
	bdense, bdenseIn := benchkit.HotpathDenseBatch(b)
	out["snn.conv_batch8_step_ns"], _ = timeOp(rungBudget, func() { bconv.Step(t, 1, b, bconvIn); t++ })
	out["snn.dense_batch8_step_ns"], _ = timeOp(rungBudget, func() { bdense.Step(t, 1, b, bdenseIn); t++ })
}

func ladderObs(out map[string]float64) {
	ring := obs.NewRing(256, 32, 250*time.Millisecond)
	tr := obs.Trace{ID: "1", Model: modelName, TotalMs: 0.5, Steps: 18}
	out["obs.ring_add_ns"], _ = timeOp(rungBudget, func() { ring.Add(tr) })
	hist := obs.NewDurationHistogram()
	out["obs.histogram_observe_ns"], _ = timeOp(rungBudget, func() { hist.ObserveDuration(470 * time.Microsecond) })
}

// firstError keeps the first error a rung's operations report; a rung
// cannot stop its timing loop for one.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// newOracle converts the model exactly as a server registration does
// (same defaults, through serve.Registry) and checks out one replica:
// the private simulator the output check and the engine rungs run on.
func newOracle(m *experiments.Model) (*serve.Replica, serve.ExitPolicy, error) {
	model, err := serve.NewRegistry().Register(modelConfig(), m.Net, m.Set.Train)
	if err != nil {
		return nil, serve.ExitPolicy{}, err
	}
	rep, err := model.Pool().Get(context.Background())
	if err != nil {
		return nil, serve.ExitPolicy{}, err
	}
	return rep, model.Config().Exit, nil
}

// ladderCoding times the served model's input encoder, the image hash
// and a fixed-length Network.Run.
func ladderCoding(out map[string]float64, rep *serve.Replica, images [][]float64) {
	// Three sightings promote every fixed image into the replica's
	// quantization cache, so the rungs on this replica time the steady
	// state and count no promotion allocations.
	for pass := 0; pass < 3; pass++ {
		for _, img := range images {
			rep.Net.Reset(img)
		}
	}
	// The encoder without its quantization cache: the work a first-seen
	// image costs, which is what unique traffic pays on every request.
	enc := rep.Net.Encoder.(coding.CloneableEncoder).Clone()
	if qc, ok := enc.(coding.QuantCached); ok {
		qc.SetQuantCache(nil)
	}
	ns, allocs := timeRungs(rungBudget, len(images),
		func(i int) { enc.Reset(images[i]) },
		func(i int) { coding.HashImage(images[i]) },
		func(i int) { rep.Net.Run(images[i], 64) },
	)
	out["coding.encode_reset_ns"], out["coding.hash_image_ns"] = ns[0], ns[1]
	out["snn.run64_ns"], out["snn.run64_allocs"] = ns[2], allocs[2]
	t := 0
	out["coding.encode_step_ns"], _ = timeOp(rungBudget, func() { enc.Step(t); t++ })
}

// ladderSimulatePath climbs the path a request takes when it has to be
// simulated: the engine on one replica (sequential, then 8 lanes in
// lockstep), the batcher in front of it, the server in front of that.
func ladderSimulatePath(ctx context.Context, out map[string]float64, m *experiments.Model,
	rep *serve.Replica, policy serve.ExitPolicy, images [][]float64) error {
	var failed firstError
	note := failed.note
	// A bare batcher on a one-replica pool, dispatching on queue drain
	// (MaxDelay < 0), so the forming timer is not what is measured.
	pool, err := serve.NewPool(rep.Net, 1)
	if err != nil {
		return err
	}
	batcher := serve.NewBatcher(pool, serve.BatcherConfig{MaxBatch: benchkit.HotpathBatchB, MaxDelay: -1})
	defer batcher.Close()
	// The server with its response cache off, so fixed images simulate.
	srv, err := newServer(m, serve.Config{MaxDelay: -1, ResponseCacheSize: -1})
	if err != nil {
		return err
	}
	defer func() { note(srv.Shutdown(ctx)) }()

	ns, allocs := timeRungs(rungBudget, len(images),
		func(i int) { serve.Classify(rep.Net, images[i], policy) },
		func(i int) {
			_, err := batcher.Submit(ctx, images[i], policy)
			note(err)
		},
		func(i int) {
			_, err := srv.Classify(ctx, serve.ClassifyRequest{Model: modelName, Image: images[i]})
			note(err)
		},
	)
	out["serve.engine.classify_ns_per_req"], out["serve.engine.classify_allocs_per_req"] = ns[0], allocs[0]
	out["serve.batcher.submit_ns_per_req"], out["serve.batcher.submit_allocs_per_req"] = ns[1], allocs[1]
	out["serve.batcher.overhead_ns_per_req"] = ns[1] - ns[0]
	out["serve.server.classify_ns_per_req"], out["serve.server.classify_allocs_per_req"] = ns[2], allocs[2]
	out["serve.server.overhead_ns_per_req"] = ns[2] - ns[1]

	const b = benchkit.HotpathBatchB
	out["serve.engine.classify_batch8_ns_per_req"], out["serve.engine.lockstep_speedup"] = 0, 0
	if bn, err := rep.Batch(b, true); err == nil {
		policies := make([]serve.ExitPolicy, b)
		for i := range policies {
			policies[i] = policy
		}
		// The same images as the sequential rung, eight at a time.
		batch, _ := timeRungs(rungBudget, len(images)/b, func(i int) {
			serve.ClassifyBatch(bn, images[i*b:(i+1)*b], policies)
		})
		out["serve.engine.classify_batch8_ns_per_req"] = batch[0] / b
		// Base: the sequential engine's ns per request on the same images.
		out["serve.engine.lockstep_speedup"] = ns[0] / (batch[0] / b)
	}

	steps, spikes := 0, 0
	for _, img := range images {
		o := serve.Classify(rep.Net, img, policy)
		steps += o.Steps
		spikes += o.TotalSpikes()
	}
	out["serve.engine.steps_per_req"] = float64(steps) / float64(len(images))
	out["serve.engine.spikes_per_req"] = float64(spikes) / float64(len(images))
	return failed.err
}

// ladderHitPath climbs the path a replayed request takes: the server
// answering from its response cache, then each thing the replay
// workloads put in front of that — fleet routing in process, the HTTP
// codec and handler, a loopback socket, the JSON hop to a worker
// process, the fleet front's own HTTP face.
func ladderHitPath(ctx context.Context, out map[string]float64, m *experiments.Model,
	modelDir, workerBin string, images [][]float64) error {
	var failed firstError
	note := failed.note
	hashes := make([]uint64, len(images))
	bodies := make([][]byte, len(images))
	for i, img := range images {
		hashes[i] = coding.HashImage(img)
		body, err := json.Marshal(serve.ClassifyRequest{Model: modelName, Image: img})
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	ring, err := fleet.NewRing(fleetShards, fleet.DefaultVNodes)
	if err != nil {
		return err
	}
	k := 0
	out["fleet.ring_owner_ns"], _ = timeOp(rungBudget, func() { k++; ring.Owner(hashes[k%len(hashes)]) })

	// One default server, its handler in process and on a socket.
	hit, err := newServer(m, serve.Config{MaxDelay: -1})
	if err != nil {
		return err
	}
	defer func() { note(hit.Shutdown(ctx)) }()
	handler := hit.Handler()
	hitSock := &sut{transport: &http.Transport{}}
	defer hitSock.transport.CloseIdleConnections()
	var hitServed chan error
	if hitSock.url, hitServed, err = listen(hit.Serve); err != nil {
		return err
	}
	// Two such servers behind the ring, in process.
	inproc, err := fleet.New(fleet.Config{Shards: fleetShards, HealthInterval: -1}, func(int) (fleet.Worker, error) {
		srv, err := newServer(m, serve.Config{MaxDelay: -1})
		if err != nil {
			return nil, err
		}
		return fleet.NewInprocWorker(srv), nil
	})
	if err != nil {
		return err
	}
	defer func() { note(inproc.Close()) }()
	// Two worker processes behind the ring, as fleet-proc-replay has them,
	// and the front's HTTP face on a socket.
	ws := &workerSet{bin: workerBin, modelDir: modelDir}
	defer ws.reap()
	proc, err := fleet.New(fleet.Config{Shards: fleetShards}, ws.spawn)
	if err != nil {
		return err
	}
	front := fleet.NewFront(proc)
	defer func() { note(front.Shutdown(ctx)) }()
	frontSock := &sut{front: front, metrics: front.Handler(), transport: &http.Transport{}}
	defer frontSock.transport.CloseIdleConnections()
	var frontServed chan error
	if frontSock.url, frontServed, err = listen(front.Serve); err != nil {
		return err
	}

	request := func(i int) serve.ClassifyRequest {
		return serve.ClassifyRequest{Model: modelName, Image: images[i]}
	}
	var rec *httptest.ResponseRecorder
	hitCaller, frontCaller := hitSock.newCaller(), frontSock.newCaller()
	rungs := []func(i int){
		func(i int) { _, err := hit.Classify(ctx, request(i)); note(err) },
		func(i int) { _, err := inproc.Classify(ctx, request(i)); note(err) },
		func(i int) {
			rec = httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(bodies[i])))
			if rec.Code != http.StatusOK {
				note(fmt.Errorf("handler rung: status %d", rec.Code))
			}
		},
		func(i int) { _, err := hitCaller.post(ctx, bodies[i]); note(err) },
		func(i int) { _, err := proc.Classify(ctx, request(i)); note(err) },
		func(i int) { _, err := frontCaller.post(ctx, bodies[i]); note(err) },
	}
	// Three sightings make every fixed image a response-cache entry on
	// every system (timeRungs' own untimed pass is the fourth).
	for pass := 0; pass < 3; pass++ {
		for _, rung := range rungs {
			for i := range images {
				rung(i)
			}
		}
	}
	before, err := frontSock.scrape()
	if err != nil {
		return err
	}
	ns, allocs := timeRungs(rungBudget, len(images), rungs...)
	after, err := frontSock.scrape()
	if err != nil {
		return err
	}
	fleetWindowMetrics(out, before, after)

	out["serve.server.cache_hit_ns_per_req"], out["serve.server.cache_hit_allocs_per_req"] = ns[0], allocs[0]
	out["fleet.inproc_classify_ns_per_req"] = ns[1]
	out["fleet.route_overhead_ns_per_req"] = ns[1] - ns[0]
	out["serve.http.handler_ns_per_req"], out["serve.http.handler_allocs_per_req"] = ns[2], allocs[2]
	out["serve.http.request_bytes"] = float64(len(bodies[0]))
	out["serve.http.response_bytes"] = float64(rec.Body.Len())
	out["serve.http.loopback_ns_per_req"] = ns[3]
	out["serve.http.socket_overhead_ns_per_req"] = ns[3] - ns[2]
	out["fleet.proc_classify_ns_per_req"] = ns[4]
	out["fleet.wire_overhead_ns_per_req"] = ns[4] - ns[1]
	out["fleet.front_http_ns_per_req"] = ns[5]
	out["fleet.front_overhead_ns_per_req"] = ns[5] - ns[4]

	// Unique images through the proc fleet: the workers run serve.Config
	// defaults, so this rung includes their 2 ms batch-forming window.
	unique := newTraffic(1, 10*classes, true)
	scratch := make([]float64, unique.inputSize())
	var next uint64
	out["fleet.proc_unique_ns_per_req"], _ = timeOp(rungBudget, func() {
		img, _ := unique.request(next, scratch)
		next++
		_, err := proc.Classify(ctx, serve.ClassifyRequest{Model: modelName, Image: img})
		note(err)
	})

	note(front.Shutdown(ctx))
	note(<-frontServed)
	note(hit.Shutdown(ctx))
	note(<-hitServed)
	return failed.err
}

// ladderCoreScaling is direct-saturate's traffic from enough callers to
// fill one batch per core (the workload itself keeps one in flight), at
// GOMAXPROCS=nproc over GOMAXPROCS=1, each on a fresh server (replica
// pool and queue depth follow GOMAXPROCS at registration).
func ladderCoreScaling(ctx context.Context, out map[string]float64, modelDir string) error {
	w := workloads[0]
	tr := newTraffic(1, w.images, w.unique)
	rate := func(procs int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := bringUp(ctx, w.transport, modelDir, "")
		if err != nil {
			return 0, err
		}
		defer s.close()
		res, err := drive(ctx, s, tr, batchLanes*runtime.NumCPU(), []windowSpec{
			{dur: 500 * time.Millisecond},
			{dur: 1500 * time.Millisecond, record: true},
		})
		if err != nil {
			return 0, err
		}
		return float64(res[0].ok) / res[0].elapsed.Seconds(), nil
	}
	one, err := rate(1)
	if err != nil {
		return err
	}
	all, err := rate(runtime.NumCPU())
	if err != nil {
		return err
	}
	out["serve.server.core_scaling"] = all / one
	return nil
}
