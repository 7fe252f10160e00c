package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	// StateResident: installed in the registry with a live pool.
	StateResident = "resident"
	// StateEvicted: unregistered with the conversion archived; the next
	// request (or an explicit re-register) restores it.
	StateEvicted = "evicted"
)

// ModelConfig declares one servable model: a named DNN plus the coding
// hybrid it is converted under and the serving knobs.
type ModelConfig struct {
	// Name is the registry key exposed by the API.
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

// Registry owns the servable models. Conversion runs once per registered
// (model, hybrid) configuration; the ConvertResult is cached on the Model
// and replicas are weight-sharing clones of it. Evicted models move to an
// archive keyed by the same name: their pool is released but the
// conversion and metrics are retained so Restore is cheap and counters
// are continuous.
type Registry struct {
	mu      sync.RWMutex
	models  map[string]*Model
	archive map[string]*archived
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*Model{}, archive: map[string]*archived{}}
}

// Prepare converts net under cfg and builds a Model (pool, fresh
// metrics) WITHOUT installing it. The caller pairs it with Install so
// the registry swap can be made atomic with whatever else must swap
// alongside it (the server swaps the request queue in the same critical
// section). normSamples feed the activation-recording pass of weight
// normalization (typically the model's training split).
func (r *Registry) Prepare(cfg ModelConfig, net *dnn.Network, normSamples []dataset.Sample) (*Model, error) {
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
	return r.build(cfg, conv)
}

// build assembles a Model around a conversion result: replica pool,
// fresh metrics. Shared by Prepare (fresh conversion) and Restore
// (archived conversion).
func (r *Registry) build(cfg ModelConfig, conv *convert.Result) (*Model, error) {
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

// Install makes a prepared model resident. If a model of the same name
// is resident (or archived from an eviction), the new model adopts its
// metrics accumulator, so history is continuous; any archive entry is
// consumed. Returns the prior resident model (nil if none).
func (r *Registry) Install(m *Model) *Model {
	r.mu.Lock()
	old := r.models[m.cfg.Name]
	if old != nil {
		m.metrics = old.metrics
	} else if a, ok := r.archive[m.cfg.Name]; ok {
		m.metrics = a.metrics
	}
	delete(r.archive, m.cfg.Name)
	r.models[m.cfg.Name] = m
	r.mu.Unlock()
	return old
}

// Register converts net under cfg and installs it. Registering an
// existing name replaces the old model atomically but keeps its metrics
// history. Direct registry users get the combined operation; the server
// uses Prepare+Install so the install can share a critical section with
// its own request-queue swap.
func (r *Registry) Register(cfg ModelConfig, net *dnn.Network, normSamples []dataset.Sample) (*Model, error) {
	m, err := r.Prepare(cfg, net, normSamples)
	if err != nil {
		return nil, err
	}
	r.Install(m)
	return m, nil
}

// RegisterFile loads a model written by dnn.SaveModelFile and registers
// it under cfg.
func (r *Registry) RegisterFile(cfg ModelConfig, path string, normSamples []dataset.Sample) (*Model, error) {
	_, net, err := dnn.LoadModelFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", cfg.Name, err)
	}
	return r.Register(cfg, net, normSamples)
}

// Unregister removes the named model. With archive=true (eviction) the
// conversion and metrics move to the archive so Restore can bring the
// model back without re-converting; with archive=false the name is
// forgotten entirely (any archive entry included). Returns the removed
// resident model, nil if the name was only archived or unknown.
func (r *Registry) Unregister(name string, archive bool) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, resident := r.models[name]
	if !resident && r.archive[name] == nil {
		return nil, errUnknownModel(name)
	}
	delete(r.models, name)
	if !archive {
		delete(r.archive, name)
		return m, nil
	}
	if resident {
		a := m.archived
		r.archive[name] = &a
	}
	return m, nil
}

// Restore builds a fresh Model for an evicted name from its archived
// conversion (pool rebuilt, conversion and metrics reused). The result
// is NOT installed — pair with Install, exactly like Prepare.
func (r *Registry) Restore(name string) (*Model, error) {
	r.mu.RLock()
	a, ok := r.archive[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: model %q is not archived", name)
	}
	return r.build(a.cfg, a.conv)
}

// Known reports whether name is resident or archived — i.e. whether a
// Classify for it can possibly be served (directly or after warming).
func (r *Registry) Known(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, resident := r.models[name]
	_, evicted := r.archive[name]
	return resident || evicted
}

// Archived reports whether name is evicted-but-restorable.
func (r *Registry) Archived(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.archive[name]
	return ok
}

// ArchivedStats returns each archived model's retained metrics, keyed by
// name, so exposition can keep reporting evicted models' counters.
func (r *Registry) ArchivedStats() map[string]*Metrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Metrics, len(r.archive))
	for name, a := range r.archive {
		out[name] = a.metrics
	}
	return out
}

// Get returns the named model.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil, errUnknownModel(name)
	}
	return m, nil
}

// List returns every resident model's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	infos := make([]Info, 0, len(r.models))
	for _, m := range r.models {
		infos = append(infos, m.Info())
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ListAll returns resident and evicted models' Infos, sorted by name.
// Evicted entries carry State "evicted" and zero replicas.
func (r *Registry) ListAll() []Info {
	r.mu.RLock()
	infos := make([]Info, 0, len(r.models)+len(r.archive))
	for _, m := range r.models {
		infos = append(infos, m.Info())
	}
	for _, a := range r.archive {
		infos = append(infos, a.info())
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
