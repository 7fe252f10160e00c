package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/experiments"
	"burstsnn/internal/fleet"
	"burstsnn/internal/serve"
)

// modelConfig is the one registration every server of the benchmark
// uses; the proc workers get the same through snnserve's flag defaults.
func modelConfig() serve.ModelConfig {
	return serve.ModelConfig{
		Name:   modelName,
		Hybrid: core.NewHybrid(coding.Phase, coding.Burst),
		Steps:  stepBudget,
	}
}

// loadModel trains the tiny textures10 baseline into dir, or loads it
// from there when an earlier call already has.
func loadModel(dir string) (*experiments.Model, error) {
	lab := experiments.NewLab(experiments.Settings{Tiny: true, ModelDir: dir})
	return lab.Model(modelName)
}

func newServer(m *experiments.Model, cfg serve.Config) (*serve.Server, error) {
	srv := serve.New(cfg)
	if _, err := srv.Register(modelConfig(), m.Net, m.Set.Train); err != nil {
		return nil, err
	}
	return srv, nil
}

// repoRoot walks up from the working directory to the module root, so
// the benchmark finds ./cmd/snnserve whether it runs from the checkout
// root (go run ./benchmark) or from its own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildWorker compiles cmd/snnserve into dir before any clock starts.
func buildWorker(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "snnserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/snnserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build snnserve: %w\n%s", err, out)
	}
	return bin, nil
}

// workerSet tracks every worker process a run spawned, so teardown can
// prove none outlives it.
type workerSet struct {
	bin, modelDir string

	mu   sync.Mutex
	live []*fleet.ProcWorker
}

func (ws *workerSet) spawn(int) (fleet.Worker, error) {
	w, err := fleet.SpawnProcWorker(ws.bin,
		[]string{"-worker", "-models", modelName, "-tiny", "-dir", ws.modelDir}, 0)
	if err != nil {
		return nil, err
	}
	ws.mu.Lock()
	ws.live = append(ws.live, w)
	ws.mu.Unlock()
	return w, nil
}

func (ws *workerSet) pids() []int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	pids := make([]int, len(ws.live))
	for i, w := range ws.live {
		pids[i] = w.Pid()
	}
	return pids
}

// reap closes every worker the run spawned (SIGTERM, SIGKILL after 10 s,
// wait). The fleet's own Close normally has already; this covers exit
// paths where it did not run, and workers a respawn displaced.
func (ws *workerSet) reap() {
	ws.mu.Lock()
	live := ws.live
	ws.mu.Unlock()
	for _, w := range live {
		_ = w.Close()
	}
}

// sut is one brought-up system under test.
type sut struct {
	model *experiments.Model
	srv   *serve.Server // direct and httpSrv
	front *fleet.Front  // httpFleet
	ws    *workerSet    // httpFleet
	// url is the classify endpoint; empty for the direct transport.
	url string
	// metrics answers GET /metrics in process: the server's handler, or
	// the front's (which scrapes its workers over HTTP).
	metrics   http.Handler
	transport *http.Transport
	served    chan error
	closed    bool
}

// primeCallers is the closed-loop width of cache priming; the transport
// keeps that many connections alive.
const primeCallers = 16

// bringUp builds the whole system from nothing — train or load the
// model, convert, register, listen, spawn workers — and returns once it
// has answered one request.
func bringUp(ctx context.Context, tr transport, modelDir, workerBin string) (*sut, error) {
	m, err := loadModel(modelDir)
	if err != nil {
		return nil, err
	}
	s := &sut{
		model:     m,
		transport: &http.Transport{MaxIdleConnsPerHost: primeCallers},
	}
	var handler http.Handler
	if tr == httpFleet {
		s.ws = &workerSet{bin: workerBin, modelDir: modelDir}
		fl, err := fleet.New(fleet.Config{Shards: fleetShards}, s.ws.spawn)
		if err != nil {
			s.ws.reap()
			return nil, err
		}
		s.front = fleet.NewFront(fl)
		handler = s.front.Handler()
	} else {
		s.srv, err = newServer(m, serve.Config{})
		if err != nil {
			return nil, err
		}
		handler = s.srv.Handler()
	}
	s.metrics = handler
	if tr != direct {
		serveFn := s.front.Serve
		if s.front == nil {
			serveFn = s.srv.Serve
		}
		if s.url, s.served, err = listen(serveFn); err != nil {
			s.close()
			return nil, err
		}
	}
	c := s.newCaller()
	if _, err := c.classify(ctx, m.Set.Test[0].Image); err != nil {
		s.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// listen serves on a loopback port and returns the classify URL.
func listen(serveFn func(net.Listener) error) (url string, served chan error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served = make(chan error, 1)
	go func() { served <- serveFn(ln) }()
	return "http://" + ln.Addr().String() + "/v1/classify", served, nil
}

// close drains and stops everything bringUp started and waits for it.
// A second call does nothing.
func (s *sut) close() {
	if s.closed {
		return
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	switch {
	case s.front != nil:
		_ = s.front.Shutdown(ctx)
	case s.srv != nil:
		_ = s.srv.Shutdown(ctx)
	}
	if s.served != nil {
		<-s.served
	}
	s.transport.CloseIdleConnections()
	if s.ws != nil {
		s.ws.reap()
	}
}

// caller is one closed-loop client. It keeps the timestamps of its last
// request; the load driver turns them into latencies and spans.
type caller struct {
	s  *sut
	hc *http.Client
	// scratch is the image buffer unique traffic stamps into.
	scratch []float64
	body    bytes.Buffer

	began, sent, received, decoded time.Time
}

func (s *sut) newCaller() *caller {
	return &caller{s: s, hc: &http.Client{Transport: s.transport}}
}

// classify sends one request the way the workload's clients do — a
// Server.Classify call, or a JSON POST with float64 pixels — and accepts
// only a 200 with a well-formed body.
func (c *caller) classify(ctx context.Context, image []float64) (serve.ClassifyResult, error) {
	req := serve.ClassifyRequest{Model: modelName, Image: image}
	c.began = time.Now()
	if c.s.url == "" {
		c.sent = c.began
		res, err := c.s.srv.Classify(ctx, req)
		c.received = time.Now()
		c.decoded = c.received
		return res, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return serve.ClassifyResult{}, err
	}
	c.sent = time.Now()
	res, err := c.post(ctx, payload)
	c.decoded = time.Now()
	return res, err
}

func (c *caller) post(ctx context.Context, payload []byte) (serve.ClassifyResult, error) {
	var res serve.ClassifyResult
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.s.url, bytes.NewReader(payload))
	if err != nil {
		return res, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		c.received = time.Now()
		return res, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	c.received = time.Now()
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	if err := json.Unmarshal(c.body.Bytes(), &res); err != nil {
		return res, fmt.Errorf("response body: %w", err)
	}
	return res, nil
}

// wellFormed is the shape check on a 200 reply: anything else counts as
// a failed request.
func wellFormed(res serve.ClassifyResult) error {
	switch {
	case res.Model != modelName:
		return fmt.Errorf("reply names model %q", res.Model)
	case res.Prediction < 0 || res.Prediction >= classes:
		return fmt.Errorf("prediction %d out of range", res.Prediction)
	case res.Steps < 1 || res.Steps > stepBudget:
		return fmt.Errorf("steps %d outside [1,%d]", res.Steps, stepBudget)
	case res.Spikes != res.InputSpikes+res.HiddenSpikes || res.Spikes <= 0:
		return fmt.Errorf("spike counts %d+%d=%d", res.InputSpikes, res.HiddenSpikes, res.Spikes)
	}
	return nil
}

// view is one /metrics scrape reduced to what the benchmark reads: the
// model's counters and stage summaries (merged across shards for the
// fleet) and, for the fleet, the per-shard routing counters.
type view struct {
	counters serve.Snapshot
	stages   map[string]serve.StageStats
	shards   []fleet.ShardCounters
}

func (s *sut) scrape() (view, error) {
	rec := httptest.NewRecorder()
	s.metrics.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return view{}, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	if s.front != nil {
		var snap fleet.FleetSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			return view{}, fmt.Errorf("fleet /metrics: %w", err)
		}
		if snap.LiveShards != fleetShards {
			return view{}, fmt.Errorf("fleet /metrics: %d of %d shards live", snap.LiveShards, fleetShards)
		}
		m := snap.Models[modelName]
		return view{counters: m.Counters, stages: m.Stages, shards: snap.PerShard}, nil
	}
	var page struct {
		Models map[string]serve.Snapshot `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		return view{}, fmt.Errorf("/metrics: %w", err)
	}
	m, ok := page.Models[modelName]
	if !ok {
		return view{}, fmt.Errorf("/metrics: no model %q", modelName)
	}
	return view{counters: m, stages: m.Stages}, nil
}

// cpuSeconds is the user+system CPU time spent so far by this process
// and by the system's live worker processes. Workers are read from
// /proc/<pid>/stat (fields 14 and 15, in 10 ms ticks) because getrusage
// only reports children once they have been reaped.
func (s *sut) cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	total := tv(ru.Utime) + tv(ru.Stime)
	if s.ws == nil {
		return total, nil
	}
	for _, pid := range s.ws.pids() {
		cpu, err := procCPUSeconds(pid)
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	fields := bytes.Fields(data[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseUint(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseUint(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad CPU fields", pid)
	}
	return float64(utime+stime) / clockTick, nil
}
