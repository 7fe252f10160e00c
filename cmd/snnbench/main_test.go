package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"burstsnn/internal/kernels"
)

// CI's per-tier jobs run only when `snnbench -probe-level <tier>` exits 0,
// so the probe must accept every tier the ladder offers and nothing else.
func TestProbeLevel(t *testing.T) {
	for _, lv := range kernels.Available() {
		if err := probeLevel(lv); err != nil {
			t.Errorf("probeLevel(%q) = %v, want nil", lv, err)
		}
	}
	for _, bad := range []string{"bogus", ""} {
		if err := probeLevel(bad); err == nil {
			t.Errorf("probeLevel(%q) = nil, want an error", bad)
		}
	}
}

// Every name in -run must be an exhibit: a typo or a retired exhibit is a
// usage error, not a silently shorter report.
func TestParseRun(t *testing.T) {
	known := exhibitNames()
	want, err := parseRun("table1, fig4", known)
	if err != nil {
		t.Fatalf("parseRun(table1, fig4) = %v", err)
	}
	if len(want) != 2 || !want["table1"] || !want["fig4"] {
		t.Errorf("parseRun(table1, fig4) = %v, want table1 and fig4", want)
	}
	all, err := parseRun("all", known)
	if err != nil {
		t.Fatalf("parseRun(all) = %v", err)
	}
	if len(all) != len(known) {
		t.Errorf("parseRun(all) selects %d exhibits, want %d", len(all), len(known))
	}
	for _, tc := range []struct{ list, unknown string }{
		{"table1,tabel2", "tabel2"}, {"chip", "chip"}, {"", ""}, {"table1,", ""},
	} {
		_, err := parseRun(tc.list, known)
		if err == nil {
			t.Errorf("parseRun(%q) = nil error, want an unknown-exhibit error", tc.list)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, strconv.Quote(tc.unknown)) || !strings.Contains(msg, "fig1") {
			t.Errorf("parseRun(%q) error %q does not name %q and list the valid names", tc.list, msg, tc.unknown)
		}
	}
}

// An unknown exhibit exits 2 before anything runs.
func TestRunRejectsUnknownExhibit(t *testing.T) {
	for _, list := range []string{"table1,tabel2", "chip"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", list}, &stdout, &stderr); code != 2 {
			t.Errorf("-run %s: exit %d, want 2", list, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %s printed a report:\n%s", list, stdout.String())
		}
		if !strings.Contains(stderr.String(), "unknown exhibit") {
			t.Errorf("-run %s: stderr %q does not name the unknown exhibit", list, stderr.String())
		}
	}
}

// A CSV that cannot be written fails the run with exit 1.
func TestRunFailsWhenCSVExportFails(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-tiny", "-run", "table1", "-images", "4", "-steps", "16",
		"-dir", filepath.Join(tmp, "models"), "-csv", filepath.Join(file, "csv")}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("-csv under a regular file: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "snnbench: table1:") {
		t.Errorf("stderr does not name the failed exhibit:\n%s", stderr.String())
	}
}

func TestWriteCSVReportsExportError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	err := writeCSV(dir, "x", func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("writeCSV = %v, want the export's error", err)
	}
	if err := writeCSV(dir, "y", func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n")
		return err
	}); err != nil {
		t.Fatalf("writeCSV = %v", err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "y.csv")); err != nil || string(b) != "a,b\n" {
		t.Errorf("y.csv = %q, %v", b, err)
	}
	if err := writeCSV("", "z", func(io.Writer) error { return boom }); err != nil {
		t.Errorf("writeCSV with no dir = %v, want nil", err)
	}
}
