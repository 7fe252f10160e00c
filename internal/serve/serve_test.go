package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
)

// Shared tiny baseline: an MLP on reduced synthetic digits, trained once
// per test binary. Everything downstream is deterministic.
var (
	testOnce sync.Once
	testNet  *dnn.Network
	testSet  *dataset.Set
)

func testModel(t testing.TB) (*dnn.Network, *dataset.Set) {
	t.Helper()
	testOnce.Do(func() {
		set := dataset.SynthDigits(dataset.DigitsConfig{
			TrainPerClass: 30, TestPerClass: 5, Noise: 0.04, Seed: 1009,
		})
		net, err := dnn.Build(dnn.MLP(1, 28, 28, []int{32}, 10), mathx.NewRNG(7))
		if err != nil {
			panic(err)
		}
		dnn.Train(net, set, dnn.NewAdam(0.01), dnn.TrainConfig{
			Epochs: 8, BatchSize: 32, Seed: 5,
		})
		testNet, testSet = net, set
	})
	return testNet, testSet
}

const testSteps = 96

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	net, set := testModel(t)
	s := New(cfg)
	_, err := s.Register(ModelConfig{
		Name:        "digits",
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		Replicas:    4,
		NormSamples: 32,
	}, net, set.Train)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

func TestRegistryInfo(t *testing.T) {
	s := testServer(t, Config{})
	infos := s.Models()
	if len(infos) != 1 {
		t.Fatalf("List: got %d models, want 1", len(infos))
	}
	info := infos[0]
	if info.Name != "digits" || info.Notation != "phase-burst" {
		t.Errorf("Info name/notation = %q/%q", info.Name, info.Notation)
	}
	if info.InputSize != 28*28 || info.Classes != 10 {
		t.Errorf("Info dims = %d pixels / %d classes", info.InputSize, info.Classes)
	}
	if info.Replicas != 4 || info.Steps != testSteps {
		t.Errorf("Info replicas/steps = %d/%d", info.Replicas, info.Steps)
	}
	if info.Exit.StableWindow == 0 {
		t.Errorf("default exit policy should enable early exit, got %+v", info.Exit)
	}
	if _, err := s.Model("nope"); err == nil {
		t.Error("Get(unknown) should fail")
	}
}

func TestClassifyValidation(t *testing.T) {
	s := testServer(t, Config{})
	ctx := context.Background()
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "nope", Image: make([]float64, 784)}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: make([]float64, 10)}); err == nil {
		t.Error("wrong image size should fail")
	}
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: make([]float64, 784), MaxSteps: testSteps + 1}); err == nil {
		t.Error("maxSteps beyond budget should fail")
	}
}

// TestDeterminismUnderContention checks the serving invariant the replica
// pool must preserve: the same image yields the same prediction, step
// count, and spike count no matter which replica runs it, how requests
// are batched, or how many run concurrently.
func TestDeterminismUnderContention(t *testing.T) {
	// QueueDepth covers the full burst so overload shedding (a 429, not
	// an invariance question) can't fail the test.
	s := testServer(t, Config{MaxBatch: 4, QueueDepth: 64})
	_, set := testModel(t)
	images := set.Test[:8]
	ctx := context.Background()

	// Reference pass, no contention.
	want := make([]ClassifyResult, len(images))
	for i, sample := range images {
		res, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: sample.Image})
		if err != nil {
			t.Fatalf("reference classify %d: %v", i, err)
		}
		want[i] = res
	}

	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(images))
	for r := 0; r < rounds; r++ {
		for i, sample := range images {
			wg.Add(1)
			go func(i int, image []float64) {
				defer wg.Done()
				res, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: image})
				if err != nil {
					errs <- err
					return
				}
				w := want[i]
				if res.Prediction != w.Prediction || res.Steps != w.Steps || res.Spikes != w.Spikes {
					t.Errorf("image %d: got (pred %d, steps %d, spikes %d), want (%d, %d, %d)",
						i, res.Prediction, res.Steps, res.Spikes, w.Prediction, w.Steps, w.Spikes)
				}
			}(i, sample.Image)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent classify: %v", err)
	}
}

// TestEarlyExitEquivalence pins the early-exit engine to the offline
// pipeline: with early exit disabled, per-image accuracy matches
// core.Evaluate's final accuracy exactly; with it enabled, accuracy is
// preserved while the mean step count drops below the full budget.
func TestEarlyExitEquivalence(t *testing.T) {
	s := testServer(t, Config{})
	net, set := testModel(t)
	ctx := context.Background()

	ref, err := core.Evaluate(net, set, core.EvalConfig{
		Hybrid:      core.NewHybrid(coding.Phase, coding.Burst),
		Steps:       testSteps,
		NormSamples: 32,
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	fullCorrect, earlyCorrect, earlySteps := 0, 0, 0
	for _, sample := range set.Test {
		full, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: sample.Image, NoEarlyExit: true})
		if err != nil {
			t.Fatalf("full-budget classify: %v", err)
		}
		if full.Steps != testSteps || full.EarlyExit {
			t.Fatalf("NoEarlyExit ran %d steps (earlyExit=%v), want full %d", full.Steps, full.EarlyExit, testSteps)
		}
		if full.Prediction == sample.Label {
			fullCorrect++
		}
		early, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: sample.Image})
		if err != nil {
			t.Fatalf("early-exit classify: %v", err)
		}
		if early.Prediction == sample.Label {
			earlyCorrect++
		}
		earlySteps += early.Steps
	}
	n := len(set.Test)
	fullAcc := float64(fullCorrect) / float64(n)
	earlyAcc := float64(earlyCorrect) / float64(n)
	if fullAcc != ref.FinalAccuracy() {
		t.Errorf("full-budget serving accuracy %.4f != core.Evaluate final accuracy %.4f", fullAcc, ref.FinalAccuracy())
	}
	if earlyAcc < fullAcc {
		t.Errorf("early-exit accuracy %.4f below full-budget %.4f", earlyAcc, fullAcc)
	}
	meanSteps := float64(earlySteps) / float64(n)
	if meanSteps >= testSteps {
		t.Errorf("mean early-exit steps %.1f did not beat the %d-step budget", meanSteps, testSteps)
	}
	t.Logf("accuracy full=%.4f early=%.4f, mean steps %.1f of %d", fullAcc, earlyAcc, meanSteps, testSteps)
}

func TestHTTPAPI(t *testing.T) {
	s := testServer(t, Config{})
	_, set := testModel(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, resp.Status)
	}
	resp.Body.Close()

	// Models.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	var models struct {
		Models []Info `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatalf("models decode: %v", err)
	}
	resp.Body.Close()
	if len(models.Models) != 1 || models.Models[0].Name != "digits" {
		t.Fatalf("models = %+v", models)
	}

	// Classify.
	body, _ := json.Marshal(ClassifyRequest{Model: "digits", Image: set.Test[0].Image})
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %v", resp.Status)
	}
	var res ClassifyResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("classify decode: %v", err)
	}
	resp.Body.Close()
	if res.Model != "digits" || res.Prediction < 0 || res.Prediction > 9 || res.Steps == 0 {
		t.Errorf("classify result = %+v", res)
	}

	// Unknown model → 404.
	body, _ = json.Marshal(ClassifyRequest{Model: "nope", Image: set.Test[0].Image})
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("classify unknown: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model status = %v, want 404", resp.Status)
	}
	resp.Body.Close()

	// Bad body → 400.
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("classify bad body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %v, want 400", resp.Status)
	}
	resp.Body.Close()

	// Metrics reflect the served request.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var metrics struct {
		Models map[string]Snapshot `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()
	if snap := metrics.Models["digits"]; snap.Requests < 1 || snap.MeanSteps <= 0 {
		t.Errorf("metrics snapshot = %+v", snap)
	}
}

// TestResponseCacheServesReplays drives the cross-batch response cache
// end to end: the third classification of the same image is answered
// from the cache (two sightings promote, the third hits), reports
// Cached, matches the fresh outcome exactly, and shows up in the trace
// ring with no simulate span.
func TestResponseCacheServesReplays(t *testing.T) {
	s := testServer(t, Config{})
	_, set := testModel(t)
	ctx := context.Background()
	img := set.Test[1].Image
	var first ClassifyResult
	for i := 0; i < 3; i++ {
		res, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: img})
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.Prediction != first.Prediction || res.Steps != first.Steps ||
			res.Spikes != first.Spikes || res.EarlyExit != first.EarlyExit {
			t.Errorf("replay %d: %+v differs from first %+v", i, res, first)
		}
		if i == 2 && !res.Cached {
			t.Errorf("third sighting not served from cache: %+v", res)
		}
	}
	m, err := s.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics().Snapshot()
	if snap.ResponseCacheHits == 0 {
		t.Errorf("ResponseCacheHits = 0 after promotion replay: %+v", snap)
	}
	cached := false
	for _, tr := range s.Traces().Recent(0) {
		if tr.Cached {
			cached = true
			if tr.SimulateMs != 0 || tr.QueueMs != 0 {
				t.Errorf("cached trace carries pipeline spans: %+v", tr)
			}
		}
	}
	if !cached {
		t.Error("no cached trace recorded")
	}
}

// TestOverloadSheds429 is the admission-control contract over HTTP: a
// burst past capacity gets a mix of 200s and 429s — never a hang or a
// 5xx — and every 429 carries a Retry-After hint.
func TestOverloadSheds429(t *testing.T) {
	// One-lane batches over a tiny queue, with injected per-batch latency
	// so the burst provably outruns capacity. Cache off: every request
	// must take the full pipeline.
	s := testServer(t, Config{
		MaxBatch: 1, QueueDepth: 1, ResponseCacheSize: -1,
		InjectLatency: 250 * time.Millisecond,
	})
	_, set := testModel(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	type reply struct {
		status     int
		retryAfter string
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		img := append([]float64(nil), set.Test[0].Image...)
		img[0] = float64(i+1) / 16 // distinct images: the response cache can't absorb the burst
		go func(img []float64) {
			body, _ := json.Marshal(ClassifyRequest{Model: "digits", Image: img})
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Errorf("classify: %v", err)
				replies <- reply{}
				return
			}
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(img)
	}
	completed, shed := 0, 0
	for i := 0; i < n; i++ {
		r := <-replies
		switch r.status {
		case http.StatusOK:
			completed++
		case http.StatusTooManyRequests:
			shed++
			if sec, err := strconv.Atoi(r.retryAfter); err != nil || sec < 1 {
				t.Errorf("429 Retry-After = %q, want integer >= 1", r.retryAfter)
			}
		default:
			t.Errorf("burst request status %d, want 200 or 429", r.status)
		}
	}
	if completed == 0 || shed == 0 {
		t.Errorf("burst of %d: %d completed, %d shed — want both > 0", n, completed, shed)
	}
	if snap := mustSnapshot(t, s); snap.SheddedRequests == 0 {
		t.Errorf("sheddedRequests = 0 after overload burst: %+v", snap)
	}
}

func mustSnapshot(t *testing.T, s *Server) Snapshot {
	t.Helper()
	m, err := s.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	return m.Metrics().Snapshot()
}

func TestShutdown(t *testing.T) {
	s := testServer(t, Config{})
	_, set := testModel(t)
	ctx := context.Background()
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: set.Test[0].Image}); err != nil {
		t.Fatalf("classify before shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.Classify(ctx, ClassifyRequest{Model: "digits", Image: set.Test[0].Image}); err == nil {
		t.Error("classify after shutdown should fail")
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestRegisterFileRejectsNonFiniteWeights: a model file holding one NaN
// output weight is refused at registration, naming the blob — served, it
// answered every classify with a NaN margin.
func TestRegisterFileRejectsNonFiniteWeights(t *testing.T) {
	_, set := testModel(t)
	spec := dnn.MLP(1, 28, 28, []int{8}, 10)
	net, err := dnn.Build(spec, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	params := net.Params()
	params[len(params)-2].W.Data[5] = math.NaN()
	path := t.TempDir() + "/nan.gob"
	if err := dnn.SaveModelFile(path, spec, net); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.RegisterFile(lifecycleModelConfig("nan"), path, set.Train); err == nil || !strings.Contains(err.Error(), "weight blob") {
		t.Fatalf("RegisterFile = %v, want the NaN weight blob named", err)
	}
}

// TestWriteJSONNonFiniteAnswers500: a value JSON cannot carry is caught
// before the header goes out — a 500 with an error body, not a 200 with
// none.
func TestWriteJSONNonFiniteAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, ClassifyResult{Margin: math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Fatalf("status %d body %q (%v), want 500 with an error body", rec.Code, rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
