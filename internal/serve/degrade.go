package serve

import "sync"

// Degraded-mode defaults. Pressure is the EWMA'd admission-queue
// fill fraction (depth / capacity) sampled at every submit; the enter
// and exit thresholds are deliberately far apart so the mode doesn't
// flap at the boundary (classic hysteresis), and the EWMA weight
// matches the batcher's drain and pressure filters (drainEWMAWeight) —
// all smooth the same kind of bursty per-event signal.
const (
	DefaultDegradeEnterPressure = 0.75
	DefaultDegradeExitPressure  = 0.25

	degradeEWMAWeight = 0.25
)

// DegradeController decides when serving should trade answer quality
// for queue headroom. It watches admission-queue pressure and flips a
// two-state machine (normal ⇄ degraded) with hysteresis: enter when
// the smoothed fill fraction reaches the enter threshold, leave only
// once it has fallen back below the exit threshold. While degraded,
// the batcher runs every admitted request under Tighten(policy) — a
// halved simulation budget — so each queued request drains in roughly
// half the steps and pressure self-corrects. Safe for concurrent use.
type DegradeController struct {
	enter float64
	exit  float64

	mu       sync.Mutex
	pressure float64
	samples  int
	degraded bool
	enters   int64
}

// NewDegradeController returns a controller with the given hysteresis
// thresholds; values <= 0 use the defaults, and an exit threshold at or
// above enter is clamped to half of enter so the hysteresis band never
// collapses.
func NewDegradeController(enter, exit float64) *DegradeController {
	if enter <= 0 {
		enter = DefaultDegradeEnterPressure
	}
	if exit <= 0 || exit >= enter {
		exit = enter / 2
		if DefaultDegradeExitPressure < exit {
			exit = DefaultDegradeExitPressure
		}
	}
	return &DegradeController{enter: enter, exit: exit}
}

// Observe feeds one queue-depth sample (taken at admission time) into
// the pressure EWMA and advances the state machine.
func (d *DegradeController) Observe(depth, capacity int) {
	if capacity <= 0 {
		return
	}
	sample := float64(depth) / float64(capacity)
	d.mu.Lock()
	if d.samples == 0 {
		d.pressure = sample
	} else {
		d.pressure += degradeEWMAWeight * (sample - d.pressure)
	}
	d.samples++
	if d.degraded {
		if d.pressure <= d.exit {
			d.degraded = false
		}
	} else if d.pressure >= d.enter {
		d.degraded = true
		d.enters++
	}
	d.mu.Unlock()
}

// Degraded reports whether the controller is currently in degraded mode.
func (d *DegradeController) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// State returns the current mode name ("normal" or "degraded") and the
// smoothed queue-pressure signal, for /metrics and /healthz.
func (d *DegradeController) State() (mode string, pressure float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mode = "normal"
	if d.degraded {
		mode = "degraded"
	}
	return mode, d.pressure
}

// Enters returns how many times the controller has entered degraded
// mode since creation.
func (d *DegradeController) Enters() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.enters
}

// Tighten maps an exit policy to its degraded-mode variant: the step
// budget (and, when early exit is enabled, the floor and stability
// window) are halved, halving the worst-case replica time a queued
// request can consume. The mapping is deterministic — the same input
// policy always degrades to the same tightened policy, so degraded
// responses stay reproducible and cacheable under their tightened key.
// Margin is left alone: it shapes *when* an early exit fires, not how
// much budget a request may burn. The result always satisfies
// ExitPolicy.Validate for any valid input.
func (d *DegradeController) Tighten(p ExitPolicy) ExitPolicy {
	q := p
	q.MaxSteps = (p.MaxSteps + 1) / 2
	if q.MaxSteps < 1 {
		q.MaxSteps = 1
	}
	if p.StableWindow > 0 {
		q.StableWindow = (p.StableWindow + 1) / 2
	}
	if p.MinSteps > 0 {
		q.MinSteps = (p.MinSteps + 1) / 2
	}
	if q.MinSteps > q.MaxSteps {
		q.MinSteps = q.MaxSteps
	}
	return q
}
