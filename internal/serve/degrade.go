package serve

import "sync"

// Degraded-mode thresholds on the batcher's smoothed queue pressure
// (Batcher.Pressure): they are deliberately far apart so the mode
// doesn't flap at the boundary (classic hysteresis).
const (
	DefaultDegradeEnterPressure = 0.75
	DefaultDegradeExitPressure  = 0.25
)

// DegradeController decides when serving should trade answer quality
// for queue headroom. It flips a two-state machine (normal ⇄ degraded)
// with hysteresis over the batcher's queue-pressure EWMA: enter when
// pressure reaches the enter threshold, leave only once it has fallen
// back to the exit threshold. While degraded, the batcher runs every
// admitted request under Tighten(policy) — a halved simulation budget —
// so each queued request drains in roughly half the steps and pressure
// self-corrects. Safe for concurrent use.
type DegradeController struct {
	mu       sync.Mutex
	degraded bool
	enters   int64
}

// NewDegradeController returns a controller in normal mode.
func NewDegradeController() *DegradeController { return &DegradeController{} }

// Observe advances the state machine on one pressure reading (taken at
// admission time).
func (d *DegradeController) Observe(pressure float64) {
	d.mu.Lock()
	if d.degraded {
		if pressure <= DefaultDegradeExitPressure {
			d.degraded = false
		}
	} else if pressure >= DefaultDegradeEnterPressure {
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

// Mode returns the current mode name ("normal" or "degraded"), for
// /metrics and /healthz.
func (d *DegradeController) Mode() string {
	if d.Degraded() {
		return "degraded"
	}
	return "normal"
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
