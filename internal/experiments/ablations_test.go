package experiments

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
)

func TestAblationBeta(t *testing.T) {
	l := testLab(t)
	res, err := AblationBeta(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 β rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accuracy <= 0 || row.Spikes <= 0 {
			t.Fatalf("degenerate ablation row %+v", row)
		}
	}
	if !strings.Contains(res.Render(), "β=2.00") {
		t.Fatal("render missing β labels")
	}
}

func TestAblationNorm(t *testing.T) {
	l := testLab(t)
	res, err := AblationNorm(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	// All normalization variants must keep the network functional.
	for _, row := range res.Rows {
		if row.Accuracy < 0.3 {
			t.Fatalf("normalization %q broke the network: %.3f", row.Label, row.Accuracy)
		}
	}
}

func TestExtensionTTFS(t *testing.T) {
	l := testLab(t)
	res, err := ExtensionTTFS(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	ttfs := res.Rows[1]
	phase := res.Rows[0]
	// TTFS emits at most one input spike per pixel per period, so it must
	// use no more input spikes than phase (which may emit up to k).
	if ttfs.Spikes > phase.Spikes*1.5 {
		t.Fatalf("TTFS (%v spikes) should not out-spike phase (%v) by this much", ttfs.Spikes, phase.Spikes)
	}
}

func TestCSVExports(t *testing.T) {
	l := testLab(t)

	t1, err := Table1(l)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := t1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 { // header + 9 rows
		t.Fatalf("table1 csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "input,hidden") {
		t.Fatalf("bad header %q", lines[0])
	}

	f4, err := Fig4(l)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f4.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != l.Settings.Steps+1 {
		t.Fatalf("fig4 csv has %d lines, want %d", len(lines), l.Settings.Steps+1)
	}
	if got := len(strings.Split(lines[0], ",")); got != 10 { // step + 9 combos
		t.Fatalf("fig4 csv has %d columns", got)
	}

	f2, err := Fig2(l)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.03125") {
		t.Fatal("fig2 csv missing sweep point")
	}

	f5, err := Fig5(l)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phase-burst") {
		t.Fatal("fig5 csv missing combos")
	}

	t2, err := Table2(l)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := t2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "textures100") {
		t.Fatal("table2 csv missing dataset")
	}
}

func TestExtensionLeak(t *testing.T) {
	l := testLab(t)
	res, err := ExtensionLeak(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 leak rows, got %d", len(res.Rows))
	}
	// Leak 0 is the paper's model and must be at least as accurate as
	// the strongest leak.
	if res.Rows[0].Accuracy < res.Rows[3].Accuracy-0.05 {
		t.Fatalf("pure IF (%.3f) should not trail leak=0.1 (%.3f)",
			res.Rows[0].Accuracy, res.Rows[3].Accuracy)
	}
}

// TestModelDiskCacheRoundTrip verifies that a second Lab pointed at the
// same directory loads the cached model instead of retraining, and that
// it performs identically.
func TestModelDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := QuickSettings()
	s.ModelDir = dir

	lab1 := NewLab(s)
	m1, err := lab1.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s.Log = &log
	lab2 := NewLab(s)
	m2, err := lab2.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "loaded cached digits model") {
		t.Fatalf("second Lab did not load the cache:\n%s", log.String())
	}
	if m1.DNNAcc != m2.DNNAcc {
		t.Fatalf("cached model accuracy differs: %v vs %v", m1.DNNAcc, m2.DNNAcc)
	}
	if m1.Net.NumParams() != m2.Net.NumParams() {
		t.Fatal("cached model has different parameter count")
	}
}

// TestModelCacheRejectsOtherSpec: a cached gob that clears the recipe's
// accuracy floor but was built from another spec (as another scale's
// recipe writes into a shared directory) is retrained and overwritten,
// not served.
func TestModelCacheRejectsOtherSpec(t *testing.T) {
	s := QuickSettings()
	s.ModelDir = t.TempDir()
	recipe := recipesFor(s)["digits"]
	set, spec := recipe.build()
	other := dnn.MLP(1, 28, 28, []int{64}, 10)
	net, err := dnn.Build(other, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	dnn.Train(net, set, dnn.NewAdam(recipe.lr), dnn.TrainConfig{Epochs: recipe.epochs, BatchSize: 32, Seed: 99})
	if acc := dnn.Evaluate(net, set.Test); acc < recipe.minAcc {
		t.Fatalf("the other-spec model trained to %.4f, below the %.2f floor it must clear", acc, recipe.minAcc)
	}
	path := filepath.Join(s.ModelDir, "digits.gob")
	if err := dnn.SaveModelFile(path, other, net); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	s.Log = &log
	m, err := NewLab(s).Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "loaded cached") {
		t.Fatalf("served a cached model built from another spec:\n%s", log.String())
	}
	if want, _ := dnn.Build(spec, mathx.NewRNG(1)); m.Net.NumParams() != want.NumParams() {
		t.Fatalf("model has %d parameters, the recipe's spec %d", m.Net.NumParams(), want.NumParams())
	}
	if cached, _, err := dnn.LoadModelFile(path); err != nil || !reflect.DeepEqual(cached, spec) {
		t.Fatalf("cache not rewritten with the recipe's spec: %+v, %v", cached, err)
	}
}
