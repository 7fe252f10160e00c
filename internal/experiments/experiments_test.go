package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/core"
	"burstsnn/internal/dnn"
)

var (
	labOnce sync.Once
	lab     *Lab
)

// testLab returns a shared quick-settings Lab; models train once per
// test binary.
func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab = NewLab(QuickSettings())
	})
	return lab
}

func TestModelTrainingAndCache(t *testing.T) {
	l := testLab(t)
	m, err := l.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	if m.DNNAcc < 0.85 {
		t.Fatalf("digits model acc %.3f", m.DNNAcc)
	}
	// Second call must return the same cached instance.
	m2, err := l.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	if m != m2 {
		t.Fatal("model cache miss")
	}
	if _, err := l.Model("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestModelAccuracyIsFreshEvaluate checks that the accuracy a freshly
// trained model reports — its last epoch's test score, not a second pass
// over the test set — equals what dnn.Evaluate reads on the finished net.
func TestModelAccuracyIsFreshEvaluate(t *testing.T) {
	l := testLab(t)
	for _, name := range []string{"digits", "textures10"} {
		m, err := l.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := dnn.Evaluate(m.Net, m.Set.Test); got != m.DNNAcc {
			t.Errorf("%s: DNNAcc %v, a fresh dnn.Evaluate reads %v", name, m.DNNAcc, got)
		}
	}
}

// TestEvalLogCountsEvaluatedImages checks the progress line: asked for
// more images than the test split holds, it reports the split's size,
// the number core.Evaluate actually runs.
func TestEvalLogCountsEvaluatedImages(t *testing.T) {
	s := QuickSettings()
	s.Images = 1000
	var log strings.Builder
	s.Log = &log
	l := NewLab(s)
	m, err := l.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Eval("digits", core.NewHybrid(coding.Phase, coding.Burst)); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("(%d steps, %d images)", s.Steps, len(m.Set.Test))
	if len(m.Set.Test) >= s.Images || !strings.Contains(log.String(), want) {
		t.Fatalf("log does not report %q for a %d-image split:\n%s", want, len(m.Set.Test), log.String())
	}
}

func TestEvalCacheReuse(t *testing.T) {
	l := testLab(t)
	h := core.NewHybrid(coding.Real, coding.Rate)
	a, err := l.Eval("digits", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Eval("digits", h)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("eval cache miss for identical key")
	}
	// Different vth must not collide.
	c, err := l.Eval("digits", core.NewHybrid(coding.Real, coding.Burst).WithVTh(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("eval cache collision across configs")
	}
}

func TestFig1Shapes(t *testing.T) {
	res := Fig1(0.7, 64)
	if len(res.Traces) != 3 {
		t.Fatalf("expected 3 traces, got %d", len(res.Traces))
	}
	for _, tr := range res.Traces {
		if len(tr.Spikes) == 0 {
			t.Fatalf("%s trace is silent", tr.Scheme)
		}
		if len(tr.Spikes) != len(tr.Payloads) {
			t.Fatalf("%s: %d spikes vs %d payloads", tr.Scheme, len(tr.Spikes), len(tr.Payloads))
		}
	}
	// Rate coding fires regularly with constant payloads; burst coding
	// must show short-ISI structure for a sub-threshold-per-step input.
	out := res.Render()
	for _, want := range []string{"rate", "phase", "burst", "ISIH"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	l := testLab(t)
	res, err := Table1(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(res.Rows))
	}
	rows := map[string]Table1Row{}
	for _, row := range res.Rows {
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Fatalf("row %s-%s accuracy %v", row.Input, row.Hidden, row.Accuracy)
		}
		if row.Spikes < 0 {
			t.Fatalf("row %s-%s negative spikes", row.Input, row.Hidden)
		}
		rows[row.Input+"-"+row.Hidden] = row
	}
	// The paper's most robust ordering: with a phase input, phase hidden
	// coding emits more spikes than burst hidden coding.
	if rows["phase-phase"].Spikes <= rows["phase-burst"].Spikes {
		t.Fatalf("phase-phase (%v) must out-spike phase-burst (%v)",
			rows["phase-phase"].Spikes, rows["phase-burst"].Spikes)
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestFig2BurstCompositionMonotone(t *testing.T) {
	l := testLab(t)
	res, err := Fig2(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("expected 5 sweep points, got %d", len(res.Points))
	}
	// The paper's Fig. 2 claim: smaller v_th → larger share of burst
	// spikes. Tiny runs are noisy, so compare the extremes.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.VTh != 0.5 || last.VTh != 0.03125 {
		t.Fatalf("sweep order wrong: %v ... %v", first.VTh, last.VTh)
	}
	if last.PercentBurst < first.PercentBurst {
		t.Fatalf("burst share must grow as v_th shrinks: %.3f at 0.5 vs %.3f at 0.03125",
			first.PercentBurst, last.PercentBurst)
	}
	if !strings.Contains(res.Render(), "v_th") {
		t.Fatal("render missing header")
	}
}

func TestFig3TargetsOrdered(t *testing.T) {
	l := testLab(t)
	res, err := Fig3(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 3 {
		t.Fatalf("expected 3 targets, got %d", len(res.Targets))
	}
	for i := 1; i < len(res.Targets); i++ {
		if res.Targets[i].Target >= res.Targets[i-1].Target {
			t.Fatal("targets must descend")
		}
	}
	for _, ft := range res.Targets {
		if len(ft.Cells) != 9 {
			t.Fatalf("target %.3f has %d cells", ft.Target, len(ft.Cells))
		}
	}
	// An easier target can never take longer than a harder one for the
	// same coding.
	for _, combo := range Grid() {
		var prev int = -2
		for _, ft := range res.Targets {
			for _, c := range ft.Cells {
				if c.Combo != combo.Notation() {
					continue
				}
				if prev != -2 && prev != -1 && c.Latency != -1 && c.Latency > prev {
					t.Fatalf("%s: easier target slower (%d > %d)", c.Combo, c.Latency, prev)
				}
				prev = c.Latency
			}
		}
	}
	_ = res.Render()
}

func TestFig4Curves(t *testing.T) {
	l := testLab(t)
	res, err := Fig4(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 9 {
		t.Fatalf("expected 9 curves, got %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.AccuracyAt) != l.Settings.Steps {
			t.Fatalf("%s: curve length %d", c.Combo, len(c.AccuracyAt))
		}
		sub := c.At(8)
		if len(sub) != 8 {
			t.Fatalf("At(8) returned %d points", len(sub))
		}
		if sub[len(sub)-1] != c.AccuracyAt[len(c.AccuracyAt)-1] {
			t.Fatal("subsample must end at the final accuracy")
		}
	}
	_ = res.Render()
}

func TestTable2Structure(t *testing.T) {
	l := testLab(t)
	res, err := Table2(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 3 {
		t.Fatalf("expected 3 dataset sections, got %d", len(res.Sections))
	}
	for _, sec := range res.Sections {
		baselines := 0
		for _, row := range sec.Rows {
			if row.Baseline {
				baselines++
				if row.EnergyTN != 1 || row.EnergySN != 1 {
					t.Fatalf("%s baseline energy not 1: %v/%v", sec.Dataset, row.EnergyTN, row.EnergySN)
				}
			}
			if row.EnergyTN <= 0 || row.EnergySN <= 0 {
				t.Fatalf("%s row %s has non-positive energy", sec.Dataset, row.Method)
			}
			if row.Density < 0 {
				t.Fatalf("negative density in %s", sec.Dataset)
			}
		}
		if baselines != 1 {
			t.Fatalf("%s has %d baselines", sec.Dataset, baselines)
		}
	}
	out := res.Render()
	for _, want := range []string{"digits", "textures10", "textures100", "TrueNorth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig5SpreadOrdering(t *testing.T) {
	l := testLab(t)
	res, err := Fig5(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("expected 9 points, got %d", len(res.Points))
	}
	spread := res.HiddenSpread()
	// The paper's core Fig. 5 reading: burst hidden coding adapts to the
	// input coding (large rate spread) while phase hidden coding is
	// rigid (small spread).
	if spread["burst"] <= spread["phase"] {
		t.Fatalf("burst spread (%.3f) must exceed phase spread (%.3f)",
			spread["burst"], spread["phase"])
	}
	_ = res.Render()
}

func TestSparklineAndFormatters(t *testing.T) {
	if got := sparkline([]float64{0, 1}, 0, 1); len([]rune(got)) != 2 {
		t.Fatalf("sparkline %q", got)
	}
	if sparkline(nil, 0, 1) != "" {
		t.Fatal("empty sparkline")
	}
	if flat(-1) != "n/r" || flat(7) != "7" {
		t.Fatal("flat formatter")
	}
	if fspk(-1) != "n/r" || fspk(1500) != "1.5k" || fspk(2.5e6) != "2.500M" || fspk(12) != "12" {
		t.Fatalf("fspk formatter: %s %s %s", fspk(1500), fspk(2.5e6), fspk(12))
	}
}
