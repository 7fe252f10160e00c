// Command snnbench regenerates the paper's tables and figures (the
// exhibits live in internal/experiments).
//
// Usage:
//
//	snnbench -run all                 # every table and figure
//	snnbench -run table1,fig4         # a subset
//	snnbench -run table2 -steps 384   # scale the budget up
//
// One ungated artifact mode skips the exhibits and writes JSON instead:
// -fleet (the shard-count sweep). Perf claims are made with
// `go run ./benchmark`, not with it.
//
//	snnbench -fleet BENCH_fleet.json
//	snnbench -probe-level avx2        # exit 0 iff the tier runs here
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"burstsnn/internal/experiments"
	"burstsnn/internal/kernels"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the exit
// status: 0 on success, 1 when an exhibit or an export fails, 2 on a bad
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList  = fs.String("run", "all", "comma-separated list: "+strings.Join(exhibitNames(), ",")+" or all")
		steps    = fs.Int("steps", 192, "simulation time steps per image")
		images   = fs.Int("images", 40, "test images per configuration")
		psteps   = fs.Int("pattern-steps", 128, "steps per image for spike-pattern recordings")
		pimgs    = fs.Int("pattern-images", 3, "images per spike-pattern recording")
		dir      = fs.String("dir", "", "model cache directory (default: system temp)")
		tiny     = fs.Bool("tiny", false, "use the reduced test-scale recipes")
		out      = fs.String("o", "", "also write the report to this file")
		csvDir   = fs.String("csv", "", "also export per-exhibit CSV files into this directory")
		fleetOut = fs.String("fleet", "", "run the fleet saturation sweep (shard counts 1..NumCPU at fixed offered load) and write the JSON artifact to this path (skips the exhibits)")
		probe    = fs.String("probe-level", "", "exit 0 iff the named kernel dispatch tier (purego, avx2, avx512) is available on this machine and build, else 1 (CI capability gating)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *probe != "" {
		if err := probeLevel(*probe); err != nil {
			fmt.Fprintf(stderr, "snnbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *fleetOut != "" {
		if err := runFleetBench(*fleetOut); err != nil {
			fmt.Fprintf(stderr, "snnbench: fleet: %v\n", err)
			return 1
		}
		return 0
	}

	want, err := parseRun(*runList, exhibitNames())
	if err != nil {
		fmt.Fprintf(stderr, "snnbench: %v\n", err)
		return 2
	}

	settings := experiments.DefaultSettings()
	settings.Log = stderr
	settings.Steps = *steps
	settings.Images = *images
	settings.PatternSteps = *psteps
	settings.PatternImages = *pimgs
	settings.Tiny = *tiny
	if *dir != "" {
		settings.ModelDir = *dir
	}
	lab := experiments.NewLab(settings)

	var report strings.Builder
	for _, e := range exhibits(lab, *csvDir) {
		if !want[e.name] {
			continue
		}
		s, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "snnbench: %s: %v\n", e.name, err)
			return 1
		}
		s = "## " + e.name + "\n\n" + s + "\n"
		fmt.Fprint(stdout, s)
		report.WriteString(s)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(stderr, "snnbench: writing %s: %v\n", *out, err)
			return 1
		}
		fmt.Fprintf(stderr, "report written to %s\n", *out)
	}
	return 0
}

// exhibit is one -run name and the func that renders it.
type exhibit struct {
	name string
	run  func() (string, error)
}

// exhibits lists the paper's exhibits in report order. Each one that has
// a CSV export writes it into csvDir (when set) and fails if it cannot.
func exhibits(lab *experiments.Lab, csvDir string) []exhibit {
	return []exhibit{
		{"fig1", func() (string, error) {
			return experiments.Fig1(0.7, 64).Render(), nil
		}},
		{"fig2", func() (string, error) {
			r, err := experiments.Fig2(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), writeCSV(csvDir, "fig2", r.WriteCSV)
		}},
		{"table1", func() (string, error) {
			r, err := experiments.Table1(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), writeCSV(csvDir, "table1", r.WriteCSV)
		}},
		{"fig3", func() (string, error) {
			r, err := experiments.Fig3(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig4", func() (string, error) {
			r, err := experiments.Fig4(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), writeCSV(csvDir, "fig4", r.WriteCSV)
		}},
		{"table2", func() (string, error) {
			r, err := experiments.Table2(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), writeCSV(csvDir, "table2", r.WriteCSV)
		}},
		{"fig5", func() (string, error) {
			r, err := experiments.Fig5(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), writeCSV(csvDir, "fig5", r.WriteCSV)
		}},
		{"ablations", func() (string, error) {
			var sb strings.Builder
			beta, err := experiments.AblationBeta(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(beta.Render() + "\n")
			norm, err := experiments.AblationNorm(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(norm.Render() + "\n")
			ttfs, err := experiments.ExtensionTTFS(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(ttfs.Render() + "\n")
			leak, err := experiments.ExtensionLeak(lab)
			if err != nil {
				return "", err
			}
			sb.WriteString(leak.Render())
			return sb.String(), nil
		}},
	}
}

// exhibitNames returns the names -run accepts besides "all".
func exhibitNames() []string {
	var names []string
	for _, e := range exhibits(nil, "") {
		names = append(names, e.name)
	}
	return names
}

// parseRun reads -run's comma-separated list into the set of names to
// run: every known name for "all", else each listed name. A name that is
// not in known is an error naming it and the valid ones.
func parseRun(list string, known []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, k := range known {
				want[k] = true
			}
		case slices.Contains(known, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown exhibit %q in -run=%q (valid: %s, all)",
				name, list, strings.Join(known, ", "))
		}
	}
	return want, nil
}

// writeCSV exports one exhibit's CSV as dir/name.csv; with dir empty it
// does nothing. An error creating, writing or closing the file is
// returned.
func writeCSV(dir, name string, export func(io.Writer) error) (err error) {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	if err := export(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// probeLevel reports whether the named kernel dispatch tier runs on this
// machine and build: nil (after printing the ladder) if it does, an error
// naming the ladder if not. CI gates its per-tier jobs on it.
func probeLevel(name string) error {
	avail := kernels.Available()
	for _, lv := range avail {
		if lv == name {
			fmt.Printf("level %s available (ladder: %s, detected %s)\n",
				name, strings.Join(avail, " "), kernels.DetectedLevel())
			return nil
		}
	}
	return fmt.Errorf("level %q unavailable (ladder: %s)", name, strings.Join(avail, " "))
}
