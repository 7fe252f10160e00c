package serve

import (
	"errors"
	"fmt"
	"runtime"

	"burstsnn/internal/convert"
	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
)

// ErrUnknownModel tags "no such model" failures — the name is neither
// resident nor archived — so callers (notably the HTTP handlers) can
// distinguish a true 404 from shutdown or internal errors. Always
// wrapped with the offending name; match with errors.Is.
var ErrUnknownModel = errors.New("serve: unknown model")

// errUnknownModel wraps ErrUnknownModel with the name, preserving the
// historical "serve: unknown model %q" message.
func errUnknownModel(name string) error {
	return fmt.Errorf("%w %q", ErrUnknownModel, name)
}

// Model lifecycle states reported by Info.State and Snapshot.State.
const (
	// StateResident: installed on the server with a live pool.
	StateResident = "resident"
	// StateEvicted: unregistered with the conversion archived; the next
	// request (or an explicit re-register) restores it.
	StateEvicted = "evicted"
)

// ModelConfig declares one servable model: a named DNN plus the coding
// hybrid it is converted under and the serving knobs.
type ModelConfig struct {
	// Name is the key the API exposes the model under.
	Name string
	// Hybrid is the input-hidden coding assignment (e.g. phase-burst).
	Hybrid core.Hybrid
	// Steps is the default per-request simulation budget.
	Steps int
	// Exit is the default early-exit policy; its MaxSteps is filled from
	// Steps when zero. A fully zero Exit means DefaultExitPolicy(Steps);
	// to disable early exit, set MaxSteps (or MinSteps) explicitly and
	// leave StableWindow zero.
	Exit ExitPolicy
	// Replicas sizes the simulator pool (default GOMAXPROCS).
	Replicas int
	// MaxReplicas caps pool growth for autoscaling (Pool.Resize): the
	// pool starts at Replicas and may be widened up to this bound by a
	// fleet shard's autoscaler. Default Replicas — a fixed pool.
	MaxReplicas int
	// Norm, Percentile, and NormSamples configure weight normalization
	// (defaults: percentile 99.9 over 64 samples, as in EvalConfig).
	Norm        convert.NormMethod
	Percentile  float64
	NormSamples int
}

// DefaultExitPolicy returns the serving default for a step budget: exit
// after the prediction holds for 12 consecutive steps, but never before
// two phase periods (16 steps), so periodic encoders deliver the full
// input at least twice before a verdict. Both bounds are clamped to the
// budget, so tiny budgets degrade to full-budget inference instead of an
// invalid policy.
func DefaultExitPolicy(steps int) ExitPolicy {
	p := ExitPolicy{MaxSteps: steps, MinSteps: 16, StableWindow: 12}
	if p.MinSteps > steps {
		p.MinSteps = steps
	}
	if p.StableWindow > steps {
		p.StableWindow = steps
	}
	return p
}

// Model is one registered, converted, replicated model: the part that
// survives eviction (archived) plus what eviction releases.
type Model struct {
	archived
	pool *Pool
}

// Config returns the registration config (defaults applied).
func (m *Model) Config() ModelConfig { return m.cfg }

// Metrics returns the model's serving metrics accumulator.
func (m *Model) Metrics() *Metrics { return m.metrics }

// Pool returns the model's replica pool.
func (m *Model) Pool() *Pool { return m.pool }

// InputSize returns the expected image vector length.
func (m *Model) InputSize() int { return m.inSize }

// Classes returns the readout width.
func (m *Model) Classes() int { return m.classes }

// Info is the JSON description served by GET /v1/models.
type Info struct {
	Name      string     `json:"name"`
	Notation  string     `json:"notation"`
	InputSize int        `json:"inputSize"`
	Classes   int        `json:"classes"`
	Neurons   int        `json:"neurons"`
	Steps     int        `json:"steps"`
	Replicas  int        `json:"replicas"`
	Exit      ExitPolicy `json:"exit"`
	// State is "resident" for installed models and "evicted" for models
	// whose conversion is archived awaiting warm-on-demand.
	State string `json:"state,omitempty"`
}

// Info returns the model's description.
func (m *Model) Info() Info {
	info := m.archived.info()
	info.Replicas, info.State = m.pool.Size(), StateResident
	return info
}

// archived is an evicted model's retained shadow: the cached conversion
// (so warming skips the expensive convert/normalize pass and rebuilds
// only the replica pool), the config it was registered under, and the
// metrics accumulator (so counters survive an evict/warm cycle exactly
// like they survive a re-register). Nothing here reaches the response
// cache: eviction releases the model's image memory with its pool. A
// resident Model embeds it, so the archive is by construction the model
// minus what eviction releases.
type archived struct {
	cfg     ModelConfig
	conv    *convert.Result
	metrics *Metrics
	inSize  int
	classes int
	neurons int
}

func (a *archived) info() Info {
	return Info{
		Name:      a.cfg.Name,
		Notation:  a.cfg.Hybrid.Notation(),
		InputSize: a.inSize,
		Classes:   a.classes,
		Neurons:   a.neurons,
		Steps:     a.cfg.Steps,
		Replicas:  0,
		Exit:      a.cfg.Exit,
		State:     StateEvicted,
	}
}

// Registry converts models outside any server: its Register builds a
// converted, pooled Model and installs it nowhere. A Server keeps its
// resident and evicted models in its own lifecycle table (lifecycle.go).
type Registry struct{}

// NewRegistry returns a Registry.
func NewRegistry() *Registry { return &Registry{} }

// Register converts net under cfg and returns the Model (pool, fresh
// metrics) without installing it anywhere.
func (r *Registry) Register(cfg ModelConfig, net *dnn.Network, normSamples []dataset.Sample) (*Model, error) {
	return prepare(cfg, net, normSamples)
}

// prepare converts net under cfg and builds a Model (pool, fresh
// metrics) WITHOUT installing it. normSamples feed the
// activation-recording pass of weight normalization (typically the
// model's training split).
func prepare(cfg ModelConfig, net *dnn.Network, normSamples []dataset.Sample) (*Model, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: model name must not be empty")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("serve: model %q: Steps must be positive", cfg.Name)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxReplicas < cfg.Replicas {
		cfg.MaxReplicas = cfg.Replicas
	}
	if cfg.Exit == (ExitPolicy{}) {
		cfg.Exit = DefaultExitPolicy(cfg.Steps)
	} else if cfg.Exit.MaxSteps == 0 {
		cfg.Exit.MaxSteps = cfg.Steps
	}
	if err := cfg.Exit.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", cfg.Name, err)
	}
	if cfg.Percentile == 0 {
		cfg.Percentile = 99.9
	}
	conv, err := convert.Convert(net, normSamples, convert.Options{
		Input:       cfg.Hybrid.Input,
		Hidden:      cfg.Hybrid.Hidden,
		Norm:        cfg.Norm,
		Percentile:  cfg.Percentile,
		NormSamples: cfg.NormSamples,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", cfg.Name, err)
	}
	return build(cfg, conv)
}

// build assembles a Model around a conversion result: replica pool,
// fresh metrics. Shared by prepare (fresh conversion) and the server's
// warm (archived conversion).
func build(cfg ModelConfig, conv *convert.Result) (*Model, error) {
	pool, err := NewPoolMax(conv.Net, cfg.Replicas, cfg.MaxReplicas)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", cfg.Name, err)
	}
	return &Model{
		archived: archived{
			cfg:     cfg,
			conv:    conv,
			metrics: NewMetrics(),
			inSize:  conv.Net.Encoder.Size(),
			classes: conv.Net.Output.NumNeurons(),
			neurons: conv.Net.NumNeurons(),
		},
		pool: pool,
	}, nil
}
