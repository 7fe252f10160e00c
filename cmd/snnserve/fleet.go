package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"burstsnn"
	"burstsnn/internal/coding"
	"burstsnn/internal/fleet"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
)

// runFleetWorker is `snnserve -worker`: one fleet shard as its own
// process. It serves the normal API on workerAddr (an ephemeral port by
// default) — the front upgrades GET /v1/stream there to its classify
// stream — announces the bound address on stdout for the spawning front
// tier, and drains on SIGTERM, the supervisor's graceful kill: every
// frame already read from a stream is answered before it exits.
func runFleetWorker(buildServer func(quiet bool) (*burstsnn.Server, error), workerAddr string) error {
	srv, err := buildServer(false)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", workerAddr)
	if err != nil {
		return err
	}
	// The announce line is the spawn contract (fleet.WorkerAddrPrefix):
	// it must be the worker's FIRST stdout line, after the listener is
	// live, so the front tier never races the bind.
	fmt.Printf("%s%s\n", fleet.WorkerAddrPrefix, ln.Addr().String())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "worker received %v, draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		<-done
		return nil
	}
}

type fleetOptions struct {
	shards    int
	backend   string // inproc | proc
	hops      int
	autoscale bool
	addr      string
}

// fleetConfig maps the CLI surface onto fleet.Config (the CLI's
// hops=0 means "pinned", which the config spells as negative).
func (o fleetOptions) fleetConfig() fleet.Config {
	hops := o.hops
	if hops == 0 {
		hops = -1
	}
	return fleet.Config{
		Shards:       o.shards,
		FallbackHops: hops,
		Autoscale:    o.autoscale,
	}
}

// workerArgs rebuilds the command line for a `snnserve -worker` child:
// every flag the operator set explicitly is forwarded verbatim, except
// the fleet/front-only flags, so each shard serves the same models
// under the same serving configuration.
func workerArgs() []string {
	skip := map[string]bool{
		"fleet": true, "fleet-workers": true, "fleet-fallback-hops": true,
		"fleet-autoscale": true, "worker": true, "addr": true,
		"selftest": true, "selftest-overload": true, "selftest-fleet": true,
		"requests": true, "workers": true, "trace-out": true,
	}
	args := []string{"-worker"}
	flag.Visit(func(f *flag.Flag) {
		if !skip[f.Name] {
			args = append(args, fmt.Sprintf("-%s=%s", f.Name, f.Value.String()))
		}
	})
	return args
}

// runFleetFront is `snnserve -fleet N`: the consistent-hash front tier
// over N shard workers — in-process pools or supervised child
// processes — serving the fleet API on opts.addr.
func runFleetFront(opts fleetOptions, buildServer func(quiet bool) (*burstsnn.Server, error)) error {
	var factory fleet.WorkerFactory
	switch opts.backend {
	case "inproc":
		factory = func(shard int) (fleet.Worker, error) {
			srv, err := buildServer(shard != 0) // announce models once
			if err != nil {
				return nil, err
			}
			return fleet.NewInprocWorker(srv), nil
		}
	case "proc":
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		args := workerArgs()
		factory = func(shard int) (fleet.Worker, error) {
			// Generous timeout: the child trains or loads its models
			// before it announces.
			return fleet.SpawnProcWorker(bin, args, 10*time.Minute)
		}
	default:
		return fmt.Errorf("unknown -fleet-workers backend %q (want inproc or proc)", opts.backend)
	}

	f, err := fleet.New(opts.fleetConfig(), factory)
	if err != nil {
		return err
	}
	front := fleet.NewFront(f)
	done := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "fleet front: %d %s shards, listening on %s\n",
			opts.shards, opts.backend, opts.addr)
		done <- front.ListenAndServe(opts.addr)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		_ = front.Shutdown(context.Background())
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %v, draining fleet...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := front.Shutdown(ctx); err != nil {
			return err
		}
		<-done
		return nil
	}
}

// runFleetSelftest proves the fleet tier end to end on in-process
// shards:
//
//   - Routing affinity: replayed images land on their hash owner every
//     time, so the owner's response cache promotes and serves them —
//     per-shard cache hits must show up in the merged telemetry.
//   - Mixed unique-image traffic spreads across every shard (dispatch
//     counters all advance) and completes or sheds cleanly through the
//     front's HTTP API.
//   - Kill/respawn: one shard's worker is killed mid-traffic; requests
//     keep completing on the survivors (dead shards are skipped without
//     consuming fallback hops) until the supervisor respawns it.
//   - The merged /metrics snapshot adds up across shards and
//     /metrics/prom validates as Prometheus 0.0.4 text with per-shard
//     labeled families.
//   - Shutdown returns the process to its goroutine baseline.
func runFleetSelftest(hybrid burstsnn.Hybrid, exit serve.ExitPolicy, lockstep string, shards int, logger *slog.Logger) error {
	fmt.Println("== snnserve fleet selftest ==")
	baseline := runtime.NumGoroutine()

	fmt.Println("training MLP on synthetic digits...")
	set := burstsnn.SynthDigits(burstsnn.DigitsConfig{
		TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
	})
	dnnNet, err := burstsnn.BuildDNN(burstsnn.MLP(1, 28, 28, []int{32}, 10), burstsnn.NewRNG(7))
	if err != nil {
		return err
	}
	burstsnn.Train(dnnNet, set, burstsnn.NewAdam(0.01), burstsnn.TrainConfig{
		Epochs: 6, BatchSize: 32, Seed: 5,
	})

	factory := func(shard int) (fleet.Worker, error) {
		srv := burstsnn.NewServer(burstsnn.ServeConfig{
			MaxBatch:       4,
			MaxDelay:       2 * time.Millisecond,
			LockstepBatch:  lockstep,
			RequestTimeout: 60 * time.Second,
			Logger:         logger,
		})
		if _, err := srv.Register(serve.ModelConfig{
			Name:        "digits",
			Hybrid:      hybrid,
			Steps:       exit.MaxSteps,
			Exit:        exit,
			Replicas:    1,
			MaxReplicas: 2,
		}, dnnNet, set.Train); err != nil {
			return nil, err
		}
		return fleet.NewInprocWorker(srv), nil
	}
	f, err := fleet.New(fleet.Config{
		Shards:         shards,
		HealthInterval: 50 * time.Millisecond,
	}, factory)
	if err != nil {
		return err
	}
	front := fleet.NewFront(f)
	ln, err := net0()
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- front.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 120 * time.Second}
	fmt.Printf("fleet front: %d in-proc shards on %s\n", shards, base)

	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		<-serveDone
	}
	failed := true
	defer func() {
		if failed {
			shutdown()
		}
	}()

	fleetSnap := func() (fleet.FleetSnapshot, error) {
		var snap fleet.FleetSnapshot
		if err := getJSON(client, base+"/metrics", &snap); err != nil {
			return snap, err
		}
		return snap, nil
	}

	// --- Phase A: replay-heavy traffic — owner affinity warms per-shard caches ---
	hot := set.Test[:2*shards]
	for round := 0; round < 4; round++ {
		for i, s := range hot {
			if _, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
				Model: "digits", Image: s.Image,
			}); err != nil || status != http.StatusOK {
				return fmt.Errorf("phase A round %d image %d: status %d, err %v", round, i, status, err)
			}
		}
	}
	snap, err := fleetSnap()
	if err != nil {
		return err
	}
	ms, ok := snap.Models["digits"]
	if !ok {
		return fmt.Errorf("phase A: merged snapshot has no digits model")
	}
	if ms.Counters.ResponseCacheHits == 0 {
		return fmt.Errorf("phase A: no response-cache hits after 4 replay rounds — affinity broken?")
	}
	// Each hot image's hits must sit on its OWNER shard: affinity is what
	// keeps the per-shard caches hot.
	for _, s := range hot {
		owner := f.Owner(coding.HashImage(s.Image))
		g, ok := ms.PerShard[fmt.Sprint(owner)]
		if !ok {
			return fmt.Errorf("phase A: no gauges for owner shard %d", owner)
		}
		if g.ResponseCacheHits == 0 {
			return fmt.Errorf("phase A: owner shard %d has zero cache hits for its hot image", owner)
		}
	}
	fmt.Printf("phase A (replay) : %d cache hits across shards, every hot image cached on its owner\n",
		ms.Counters.ResponseCacheHits)

	// --- Phase B: unique-image traffic spreads across every shard ---
	const uniqueRequests = 64
	var wg sync.WaitGroup
	errs := make([]error, uniqueRequests)
	for i := 0; i < uniqueRequests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := append([]float64(nil), set.Test[i%len(set.Test)].Image...)
			img[0] = float64(i+1) / float64(2*uniqueRequests)
			_, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
				Model: "digits", Image: img,
			})
			if err != nil {
				errs[i] = err
			} else if status != http.StatusOK && status != http.StatusTooManyRequests {
				errs[i] = fmt.Errorf("status %d", status)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("phase B request %d: %w", i, err)
		}
	}
	snap, err = fleetSnap()
	if err != nil {
		return err
	}
	quiet := 0
	for _, sc := range snap.PerShard {
		if sc.Dispatched == 0 {
			quiet++
		}
	}
	if quiet > 0 {
		return fmt.Errorf("phase B: %d of %d shards never dispatched a request", quiet, shards)
	}
	var dispatched int64
	for _, sc := range snap.PerShard {
		dispatched += sc.Dispatched
	}
	fmt.Printf("phase B (unique) : %d requests dispatched across %d shards\n", dispatched, shards)

	// --- Phase C: kill a shard mid-traffic; survivors carry it, the supervisor respawns it ---
	victim := f.Owner(coding.HashImage(set.Test[0].Image))
	w, ok := f.Worker(victim).(*fleet.InprocWorker)
	if !ok {
		return fmt.Errorf("phase C: shard %d worker is not in-proc", victim)
	}
	w.Kill()
	// Traffic owned by the dead shard must keep completing (dead shards
	// are skipped without consuming fallback hops).
	for i := 0; i < 8; i++ {
		if _, status, _, err := classifyHTTPStatus(client, base, serve.ClassifyRequest{
			Model: "digits", Image: set.Test[0].Image,
		}); err != nil || status != http.StatusOK {
			return fmt.Errorf("phase C request %d during outage: status %d, err %v", i, status, err)
		}
	}
	respawnDeadline := time.Now().Add(30 * time.Second)
	for {
		snap, err = fleetSnap()
		if err != nil {
			return err
		}
		if snap.PerShard[victim].Respawns >= 1 && snap.LiveShards == shards {
			break
		}
		if time.Now().After(respawnDeadline) {
			return fmt.Errorf("phase C: shard %d never respawned (live %d/%d)", victim, snap.LiveShards, shards)
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("phase C (kill)   : shard %d killed, zero dropped requests, respawned (live %d/%d)\n",
		victim, snap.LiveShards, shards)

	// --- Merged exposition: strict Prometheus validation + shard labels ---
	resp, err := client.Get(base + "/metrics/prom")
	if err != nil {
		return err
	}
	var promText strings.Builder
	samples, err := obs.ValidatePromText(io.TeeReader(resp.Body, &promText))
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("prom exposition invalid: %w", err)
	}
	for _, want := range []string{
		"burstsnn_fleet_shards",
		"burstsnn_fleet_dispatched_total",
		"burstsnn_fleet_respawns_total",
		"burstsnn_fleet_requests_total",
		"burstsnn_fleet_stage_duration_seconds",
		fmt.Sprintf("shard=%q", fmt.Sprint(shards-1)),
	} {
		if !strings.Contains(promText.String(), want) {
			return fmt.Errorf("prom exposition missing %q", want)
		}
	}
	fmt.Printf("prom exposition  : %d samples validated, per-shard families present\n", samples)

	// --- Shutdown: back to the goroutine baseline ---
	failed = false
	shutdown()
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(15 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			fmt.Printf("shutdown         : goroutines %d (baseline %d)\n", g, baseline)
			break
		}
		if time.Now().After(leakDeadline) {
			return fmt.Errorf("shutdown leaked goroutines: %d now, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("fleet selftest PASS")
	return nil
}
