package experiments

import (
	"fmt"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
)

// Combo names one input-hidden coding pair of the Table 1 grid.
type Combo struct {
	Input  coding.Scheme
	Hidden coding.Scheme
}

// Notation returns the paper's "input-hidden" label.
func (c Combo) Notation() string {
	return c.Input.String() + "-" + c.Hidden.String()
}

// Grid returns the nine coding combinations of Table 1 / Figs. 3-5, in
// the paper's row order.
func Grid() []Combo {
	var out []Combo
	for _, in := range []coding.Scheme{coding.Real, coding.Rate, coding.Phase} {
		for _, hid := range []coding.Scheme{coding.Rate, coding.Phase, coding.Burst} {
			out = append(out, Combo{Input: in, Hidden: hid})
		}
	}
	return out
}

// evalKey identifies a cached evaluation run.
type evalKey struct {
	model    string
	notation string
	vth      float64
	beta     float64
	leak     float64
	steps    int
	images   int
}

// Eval runs (or returns the cached) evaluation of one hybrid coding on a
// named model. Results are cached per (model, coding, v_th, β, leak,
// budget) key, so Table 1 and Figs. 3-5 share one grid of runs.
func (l *Lab) Eval(modelName string, hybrid core.Hybrid) (*core.EvalResult, error) {
	m, err := l.Model(modelName)
	if err != nil {
		return nil, err
	}
	key := evalKey{
		model:    modelName,
		notation: hybrid.Notation(),
		vth:      hybrid.Hidden.VTh,
		beta:     hybrid.Hidden.Beta,
		leak:     hybrid.Hidden.Leak,
		steps:    l.Settings.Steps,
		images:   l.Settings.Images,
	}
	l.mu.Lock()
	if l.evals == nil {
		l.evals = map[evalKey]*core.EvalResult{}
	}
	if res, ok := l.evals[key]; ok {
		l.mu.Unlock()
		return res, nil
	}
	l.mu.Unlock()

	// core.Evaluate caps the test split at Images (0 = all of it), so
	// that is how many images the line reports.
	images := len(m.Set.Test)
	if l.Settings.Images > 0 {
		images = min(images, l.Settings.Images)
	}
	l.logf("evaluating %s on %s (%d steps, %d images)...\n",
		hybrid.Notation(), modelName, l.Settings.Steps, images)
	res, err := core.Evaluate(m.Net, m.Set, core.EvalConfig{
		Hybrid:    hybrid,
		Steps:     l.Settings.Steps,
		MaxImages: l.Settings.Images,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: evaluating %s on %s: %w", hybrid.Notation(), modelName, err)
	}
	l.mu.Lock()
	l.evals[key] = res
	l.mu.Unlock()
	return res, nil
}

// EvalGrid evaluates all nine combinations on a model.
func (l *Lab) EvalGrid(modelName string) (map[string]*core.EvalResult, error) {
	out := map[string]*core.EvalResult{}
	for _, combo := range Grid() {
		res, err := l.Eval(modelName, core.NewHybrid(combo.Input, combo.Hidden))
		if err != nil {
			return nil, err
		}
		out[combo.Notation()] = res
	}
	return out, nil
}
