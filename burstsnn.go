// Package burstsnn is a from-scratch Go reproduction of "Fast and
// Efficient Information Transmission with Burst Spikes in Deep Spiking
// Neural Networks" (Park, Kim, Choe, Yoon — DAC 2019).
//
// The package is the supported public surface; it re-exports the pieces a
// downstream user composes:
//
//   - datasets: deterministic synthetic stand-ins for MNIST/CIFAR
//     (SynthDigits, SynthTextures),
//   - a small CPU DNN framework (BuildDNN, Train, model zoo specs),
//   - neural codings: Real, Rate, Phase, Burst (the paper's
//     contribution), and TTFS,
//   - DNN→SNN conversion with data-based or percentile weight
//     normalization,
//   - the event-driven spiking simulator and the Evaluate pipeline that
//     produces accuracy curves, spike counts, and latency metrics,
//   - spike-pattern analysis (ISI histograms, burst composition, firing
//     rate/regularity) and neuromorphic energy estimation,
//   - an online serving layer (NewServer): a model registry with cached
//     conversions, pooled simulator replicas, a microbatching request
//     queue, an early-exit engine that stops each request as soon as the
//     readout settles, and an always-on telemetry plane (per-request
//     stage traces, per-stage latency histograms, Prometheus text
//     exposition) — served over an HTTP JSON API by cmd/snnserve.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	set := burstsnn.SynthDigits(burstsnn.DefaultDigitsConfig())
//	net, _ := burstsnn.BuildDNN(burstsnn.LeNetMini(1, 28, 28, 10), burstsnn.NewRNG(1))
//	burstsnn.Train(net, set, burstsnn.NewAdam(0.002), burstsnn.TrainConfig{Epochs: 3})
//	res, _ := burstsnn.Evaluate(net, set, burstsnn.EvalConfig{
//		Hybrid: burstsnn.NewHybrid(burstsnn.Phase, burstsnn.Burst),
//		Steps:  128,
//	})
//	fmt.Println(res.FinalAccuracy(), res.SpikesPerImage)
package burstsnn

import (
	"burstsnn/internal/analysis"
	"burstsnn/internal/coding"
	"burstsnn/internal/convert"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/energy"
	"burstsnn/internal/kernels"
	"burstsnn/internal/mathx"
	"burstsnn/internal/neuromorphic"
	"burstsnn/internal/obs"
	"burstsnn/internal/serve"
	"burstsnn/internal/snn"
)

// RNG is the deterministic random number generator used everywhere.
type RNG = mathx.RNG

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return mathx.NewRNG(seed) }

// Scheme identifies a neural coding scheme.
type Scheme = coding.Scheme

// The neural coding schemes.
const (
	Real  = coding.Real
	Rate  = coding.Rate
	Phase = coding.Phase
	Burst = coding.Burst
	TTFS  = coding.TTFS
)

// CodingConfig parameterizes a scheme (v_th, β, phase period).
type CodingConfig = coding.Config

// DefaultCodingConfig returns a scheme's default parameters.
func DefaultCodingConfig(s Scheme) CodingConfig { return coding.DefaultConfig(s) }

// ParseScheme converts a scheme name ("real", "rate", "phase", "burst",
// "ttfs") to its Scheme value.
func ParseScheme(name string) (Scheme, error) { return coding.ParseScheme(name) }

// Dataset types and generators.
type (
	// Set is a labelled dataset split into train and test partitions.
	Set = dataset.Set
	// Sample is one labelled CHW image with pixels in [0,1].
	Sample = dataset.Sample
	// DigitsConfig controls SynthDigits generation.
	DigitsConfig = dataset.DigitsConfig
	// TexturesConfig controls SynthTextures generation.
	TexturesConfig = dataset.TexturesConfig
)

// SynthDigits renders the MNIST stand-in (28×28 digit glyphs).
func SynthDigits(cfg DigitsConfig) *Set { return dataset.SynthDigits(cfg) }

// SynthTextures renders the CIFAR stand-in (RGB parametric textures, 10
// or 100 classes).
func SynthTextures(cfg TexturesConfig) *Set { return dataset.SynthTextures(cfg) }

// DefaultDigitsConfig returns the harness digits configuration.
func DefaultDigitsConfig() DigitsConfig { return dataset.DefaultDigitsConfig() }

// DefaultTexturesConfig returns the harness 10-class texture configuration.
func DefaultTexturesConfig() TexturesConfig { return dataset.DefaultTexturesConfig() }

// DefaultTextures100Config returns the 100-class texture configuration.
func DefaultTextures100Config() TexturesConfig { return dataset.DefaultTextures100Config() }

// DNN framework types.
type (
	// DNN is a trained or trainable analog network.
	DNN = dnn.Network
	// Spec declares a network architecture.
	Spec = dnn.Spec
	// TrainConfig controls the training loop.
	TrainConfig = dnn.TrainConfig
	// EpochStats summarizes one training epoch.
	EpochStats = dnn.EpochStats
	// Optimizer updates parameters from gradients.
	Optimizer = dnn.Optimizer
)

// BuildDNN materializes a Spec with fresh weights.
func BuildDNN(spec Spec, r *RNG) (*DNN, error) { return dnn.Build(spec, r) }

// Train fits net on set.Train and returns per-epoch statistics.
func Train(net *DNN, set *Set, opt Optimizer, cfg TrainConfig) []EpochStats {
	return dnn.Train(net, set, opt, cfg)
}

// EvaluateDNN returns the analog network's accuracy over samples.
func EvaluateDNN(net *DNN, samples []Sample) float64 { return dnn.Evaluate(net, samples) }

// NewSGD constructs an SGD optimizer with momentum and L2 decay.
func NewSGD(lr, momentum, decay float64) Optimizer { return dnn.NewSGD(lr, momentum, decay) }

// NewAdam constructs an Adam optimizer.
func NewAdam(lr float64) Optimizer { return dnn.NewAdam(lr) }

// LeNetMini returns the MNIST-scale CNN spec.
func LeNetMini(inC, inH, inW, classes int) Spec { return dnn.LeNetMini(inC, inH, inW, classes) }

// VGGMini returns the scaled-down VGG-16 spec.
func VGGMini(inC, inH, inW, classes int) Spec { return dnn.VGGMini(inC, inH, inW, classes) }

// VGGMiniBN returns VGGMini with batch normalization after every
// convolution (folded into weights at conversion time).
func VGGMiniBN(inC, inH, inW, classes int) Spec { return dnn.VGGMiniBN(inC, inH, inW, classes) }

// VGG16 returns the full 16-weighted-layer VGG spec the paper nominally
// evaluates (compact classifier head; see the spec's doc comment).
func VGG16(inC, inH, inW, classes int) Spec { return dnn.VGG16(inC, inH, inW, classes) }

// MLP returns a fully connected spec.
func MLP(inC, inH, inW int, hidden []int, classes int) Spec {
	return dnn.MLP(inC, inH, inW, hidden, classes)
}

// SaveModelFile persists a trained model; LoadModelFile restores it.
func SaveModelFile(path string, spec Spec, net *DNN) error {
	return dnn.SaveModelFile(path, spec, net)
}

// LoadModelFile reads a model written by SaveModelFile.
func LoadModelFile(path string) (Spec, *DNN, error) { return dnn.LoadModelFile(path) }

// Conversion and evaluation types.
type (
	// Hybrid is a layer-wise coding assignment (input scheme + hidden
	// scheme), the paper's "input-hidden" notation.
	Hybrid = core.Hybrid
	// EvalConfig controls an SNN evaluation run.
	EvalConfig = core.EvalConfig
	// EvalResult aggregates an evaluation run (accuracy curve, spikes,
	// density, latency helpers).
	EvalResult = core.EvalResult
	// PatternConfig controls spike-pattern collection.
	PatternConfig = core.PatternConfig
	// PatternResult holds recorded spike-pattern statistics.
	PatternResult = core.PatternResult
	// ConvertOptions configures a standalone DNN→SNN conversion.
	ConvertOptions = convert.Options
	// ConvertResult is the converted spiking network plus metadata.
	ConvertResult = convert.Result
	// SNN is the event-driven spiking network.
	SNN = snn.Network
	// SingleNeuron is a standalone IF neuron with full coding dynamics.
	SingleNeuron = snn.SingleNeuron
)

// Normalization method constants for ConvertOptions.
const (
	MaxNorm        = convert.MaxNorm
	PercentileNorm = convert.PercentileNorm
)

// NewHybrid builds a Hybrid from two schemes with default parameters.
func NewHybrid(input, hidden Scheme) Hybrid { return core.NewHybrid(input, hidden) }

// Evaluate converts net under the hybrid coding and measures it over the
// test split of set.
func Evaluate(net *DNN, set *Set, cfg EvalConfig) (*EvalResult, error) {
	return core.Evaluate(net, set, cfg)
}

// CollectPatterns records spike trains from a converted network for
// firing-pattern analysis.
func CollectPatterns(net *DNN, set *Set, cfg PatternConfig) (*PatternResult, error) {
	return core.CollectPatterns(net, set, cfg)
}

// Convert performs a standalone DNN→SNN conversion (Evaluate wraps this;
// use Convert directly to drive the SNN step by step).
func Convert(net *DNN, samples []Sample, opts ConvertOptions) (*ConvertResult, error) {
	return convert.Convert(net, samples, opts)
}

// DefaultConvertOptions returns conversion defaults for an input/hidden
// scheme pair.
func DefaultConvertOptions(input, hidden Scheme) ConvertOptions {
	return convert.DefaultOptions(input, hidden)
}

// NewSingleNeuron creates a standalone IF neuron under a hidden coding.
func NewSingleNeuron(cfg CodingConfig) *SingleNeuron { return snn.NewSingleNeuron(cfg) }

// Serving types: the online inference layer (see internal/serve and
// cmd/snnserve).
type (
	// Server is the inference-serving frontend: model registry, replica
	// pools, microbatching queues, and the HTTP JSON API.
	Server = serve.Server
	// ServeConfig tunes the server (address, batching, timeouts).
	ServeConfig = serve.Config
	// ServeModelConfig declares one servable model (hybrid coding, step
	// budget, exit policy, replica count).
	ServeModelConfig = serve.ModelConfig
	// ExitPolicy controls the early-exit engine.
	ExitPolicy = serve.ExitPolicy
	// ClassifyRequest and ClassifyResult are the /v1/classify schema;
	// snneval -json emits the same result schema per image.
	ClassifyRequest = serve.ClassifyRequest
	ClassifyResult  = serve.ClassifyResult
	// ServeSnapshot is a point-in-time metrics view (/metrics schema).
	ServeSnapshot = serve.Snapshot
	// StageStats summarizes one stage histogram in a snapshot (count,
	// histogram-estimated mean/p50/p90/p99).
	StageStats = serve.StageStats
	// StageTimes carries one request's measured stage spans (queue, form,
	// encode, simulate, readout) through the serving pipeline.
	StageTimes = obs.StageTimes
	// RequestTrace is one request's recorded stage breakdown, the
	// GET /v1/trace schema; RequestTrace.ID echoes
	// ClassifyResult.RequestID.
	RequestTrace = obs.Trace
	// TraceRing retains recent request traces plus a bounded
	// slowest-retained set (Server.Traces exposes the server's ring).
	TraceRing = obs.Ring
)

// NewServer builds an inference server with an empty model registry.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// DefaultExitPolicy returns the serving default early-exit policy for a
// step budget.
func DefaultExitPolicy(steps int) ExitPolicy { return serve.DefaultExitPolicy(steps) }

// BatchSNN32 is the lockstep batch simulator: up to B images stepped
// through one set of float32 weights and scatter tables at once over the
// kernel dispatch ladder. Per lane it matches the sequential simulator
// under the tolerance contract (identical predictions, spike counts, and
// early-exit steps on the equivalence corpus; readout within float32
// accumulation tolerance).
type BatchSNN32 = snn.BatchNetwork32

// LockstepBatch values for ServeConfig.LockstepBatch: auto and off run
// every microbatch back to back on the sequential engine (the faster
// one on distinct images); on forces multi-request batches through the
// float32 lockstep plane.
const (
	LockstepAuto = serve.LockstepAuto
	LockstepOn   = serve.LockstepOn
	LockstepOff  = serve.LockstepOff
)

// ErrServerOverloaded is returned when the admission plane sheds a
// request instead of queueing it (full queue, or projected queue wait
// past the request deadline); the HTTP layer maps it to 429 with a
// Retry-After hint. Check with errors.Is.
var ErrServerOverloaded = serve.ErrOverloaded

// Overload-plane defaults (see ServeConfig.ResponseCacheSize /
// ResponseCacheTTL / Degrade): the cross-batch response cache's bound
// and TTL (one of three views over a model's pixel-verified memo, which
// share one pixel copy per remembered image), and the degraded-mode
// controller's queue-pressure hysteresis thresholds.
const (
	DefaultResponseCacheEntries = serve.DefaultResponseCacheEntries
	DefaultResponseCacheTTL     = serve.DefaultResponseCacheTTL
	DefaultDegradeEnterPressure = serve.DefaultDegradeEnterPressure
	DefaultDegradeExitPressure  = serve.DefaultDegradeExitPressure
)

// Kernel dispatch-tier controls, re-exported from internal/kernels: the
// simulators' block primitives are selected at runtime by CPUID
// (purego → sse → avx2 → avx512; avx512 packs only the sequential
// engine's float64 conv and dense scatter and runs every other kernel
// in its avx2 form); KernelLevel reports the active tier,
// ForceKernelLevel pins it ("" resets to the startup level), and
// KernelLevels lists the tiers this machine can run. All tiers are
// bit-identical; forcing is for benchmarking and conformance testing.
func KernelLevel() string                 { return kernels.ActiveLevel() }
func ForceKernelLevel(level string) error { return kernels.ForceLevel(level) }
func KernelLevels() []string              { return kernels.Available() }

// NewLockstepSNN builds a B-lane lockstep simulator over a converted
// network (float32 weight copies and precomputed tables are shared,
// state is fresh).
func NewLockstepSNN(net *SNN, b int) (*BatchSNN32, error) { return snn.NewBatchNetwork32(net, b) }

// ClassifyBatch runs a batch of images lockstep under per-lane exit
// policies, returning per-image outcomes plus the batch's lockstep step
// count. Outcomes match sequential classification under the tolerance
// contract (identical predictions, spike counts, and early-exit steps on
// the equivalence corpus).
func ClassifyBatch(bn *BatchSNN32, images [][]float64, policies []ExitPolicy) ([]ServeOutcome, int) {
	return serve.ClassifyBatch(bn, images, policies)
}

// ServeOutcome is the transport-independent result of one classification.
type ServeOutcome = serve.Outcome

// Analysis types.
type (
	// SpikeTrain is the ordered firing times of one neuron.
	SpikeTrain = analysis.SpikeTrain
	// BurstStats describes burst content of spike trains.
	BurstStats = analysis.BurstStats
	// PatternPoint is a (<log λ>, <κ>) firing-pattern summary.
	PatternPoint = analysis.PatternPoint
)

// Bursts analyzes burst composition (Fig. 2 statistics).
func Bursts(trains []SpikeTrain) BurstStats { return analysis.Bursts(trains) }

// ISIH builds an inter-spike-interval histogram with unit bins.
func ISIH(trains []SpikeTrain, maxISI int) []int { return analysis.ISIH(trains, maxISI) }

// Pattern reduces trains to a firing-pattern point (Fig. 5 axes).
func Pattern(trains []SpikeTrain) PatternPoint { return analysis.Pattern(trains) }

// SpikingDensity is spikes/(neurons·latency), the paper's efficiency
// metric.
func SpikingDensity(totalSpikes, neurons, latency int) float64 {
	return analysis.SpikingDensity(totalSpikes, neurons, latency)
}

// Energy model types.
type (
	// EnergyProfile is one neuromorphic architecture's decomposition.
	EnergyProfile = energy.Profile
	// Workload captures one configuration's spikes/density/latency.
	Workload = energy.Workload
)

// TrueNorth returns the TrueNorth energy profile.
func TrueNorth() EnergyProfile { return energy.TrueNorth() }

// SpiNNaker returns the SpiNNaker energy profile.
func SpiNNaker() EnergyProfile { return energy.SpiNNaker() }

// EstimateEnergy returns a workload's unnormalized energy under a profile.
func EstimateEnergy(p EnergyProfile, w Workload) float64 { return energy.Estimate(p, w) }

// NormalizeEnergy expresses workloads' energies relative to a baseline.
func NormalizeEnergy(p EnergyProfile, ws []Workload, base int) ([]float64, error) {
	return energy.Normalize(p, ws, base)
}

// Neuromorphic-mapping types: ground the energy decomposition in a placed
// core mesh instead of analytic ratios.
type (
	// ChipConfig is one neuromorphic architecture (mesh, capacities,
	// per-event energies).
	ChipConfig = neuromorphic.ChipConfig
	// Topology is a converted network as a layered connectivity graph.
	Topology = neuromorphic.Topology
	// Placement assigns neurons to cores.
	Placement = neuromorphic.Placement
	// SpikeLoad is a recorded per-neuron spike workload.
	SpikeLoad = neuromorphic.SpikeLoad
	// TrafficReport is the replayed workload's traffic and energy.
	TrafficReport = neuromorphic.TrafficReport
	// AnnealOptions tunes placement refinement.
	AnnealOptions = neuromorphic.AnnealOptions
)

// TrueNorthChip returns a TrueNorth-style mesh configuration.
func TrueNorthChip(meshW, meshH int) ChipConfig { return neuromorphic.TrueNorthChip(meshW, meshH) }

// SpiNNakerChip returns a SpiNNaker-style mesh configuration.
func SpiNNakerChip(meshW, meshH int) ChipConfig { return neuromorphic.SpiNNakerChip(meshW, meshH) }

// ExtractTopology derives a converted network's connectivity graph.
func ExtractTopology(net *SNN) (*Topology, error) { return neuromorphic.ExtractTopology(net) }

// PlaceSequential maps neurons to cores in locality-preserving order.
func PlaceSequential(topo *Topology, chip ChipConfig) (*Placement, error) {
	return neuromorphic.PlaceSequential(topo, chip)
}

// PlaceRandom scatters neurons uniformly across cores.
func PlaceRandom(topo *Topology, chip ChipConfig, seed uint64) (*Placement, error) {
	return neuromorphic.PlaceRandom(topo, chip, seed)
}

// RefinePlacement improves a placement by simulated annealing on the
// spike-weighted hop cost.
func RefinePlacement(p *Placement, spikeCounts []float64, opts AnnealOptions) *Placement {
	return neuromorphic.RefinePlacement(p, spikeCounts, opts)
}

// RecordLoad runs the network over images and records per-neuron spike
// counts aligned with the topology's global neuron ids.
func RecordLoad(net *SNN, topo *Topology, images [][]float64, steps int) *SpikeLoad {
	return neuromorphic.RecordLoad(net, topo, images, steps)
}

// Replay routes a recorded workload over a placement and integrates
// traffic and energy.
func Replay(p *Placement, load *SpikeLoad, chip ChipConfig) (*TrafficReport, error) {
	return neuromorphic.Replay(p, load, chip)
}
