// Command snnbench regenerates the paper's tables and figures (the
// exhibits live in internal/experiments).
//
// Usage:
//
//	snnbench -run all                 # every table and figure
//	snnbench -run table1,fig4         # a subset
//	snnbench -run table2 -steps 384   # scale the budget up
//
// Two ungated artifact modes skip the exhibits and write JSON instead:
// -batch (lockstep vs sequential per batch width and dispatch tier) and
// -fleet (the shard-count sweep).
// Perf claims are made with `go run ./benchmark`, not with these.
//
//	snnbench -batch BENCH_batch.json
//	snnbench -fleet BENCH_fleet.json
//	snnbench -probe-level avx2        # exit 0 iff the tier runs here
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"burstsnn/internal/experiments"
	"burstsnn/internal/kernels"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated list: fig1,fig2,table1,fig3,fig4,table2,fig5,chip,ablations or all")
		steps    = flag.Int("steps", 192, "simulation time steps per image")
		images   = flag.Int("images", 40, "test images per configuration")
		psteps   = flag.Int("pattern-steps", 128, "steps per image for spike-pattern recordings")
		pimgs    = flag.Int("pattern-images", 3, "images per spike-pattern recording")
		dir      = flag.String("dir", "", "model cache directory (default: system temp)")
		tiny     = flag.Bool("tiny", false, "use the reduced test-scale recipes")
		out      = flag.String("o", "", "also write the report to this file")
		csvDir   = flag.String("csv", "", "also export per-exhibit CSV files into this directory")
		batchOut = flag.String("batch", "", "run the batched-throughput sweep (every kernel dispatch tier this machine supports) and write the JSON artifact to this path (skips the exhibits)")
		fleetOut = flag.String("fleet", "", "run the fleet saturation sweep (shard counts 1..NumCPU at fixed offered load) and write the JSON artifact to this path (skips the exhibits)")
		probe    = flag.String("probe-level", "", "exit 0 iff the named kernel dispatch tier (purego, sse, avx2, avx512) is available on this machine and build, else 1 (CI capability gating)")
	)
	flag.Parse()

	if *probe != "" {
		if err := probeLevel(*probe); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *batchOut != "" {
		if err := runBatchBench(*batchOut); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: batch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *fleetOut != "" {
		if err := runFleetBench(*fleetOut); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	settings := experiments.DefaultSettings()
	settings.Log = os.Stderr
	settings.Steps = *steps
	settings.Images = *images
	settings.PatternSteps = *psteps
	settings.PatternImages = *pimgs
	settings.Tiny = *tiny
	if *dir != "" {
		settings.ModelDir = *dir
	}
	lab := experiments.NewLab(settings)

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]

	var report strings.Builder
	emit := func(s string) {
		fmt.Print(s)
		report.WriteString(s)
	}

	writeCSV := func(name string, export func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %v\n", err)
			return
		}
		path := *csvDir + "/" + name + ".csv"
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %v\n", err)
			return
		}
		defer f.Close()
		if err := export(f); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: writing %s: %v\n", path, err)
		}
	}

	type experiment struct {
		name string
		run  func() (string, error)
	}
	exps := []experiment{
		{"fig1", func() (string, error) {
			return experiments.Fig1(0.7, 64).Render(), nil
		}},
		{"fig2", func() (string, error) {
			r, err := experiments.Fig2(lab)
			if err != nil {
				return "", err
			}
			writeCSV("fig2", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"table1", func() (string, error) {
			r, err := experiments.Table1(lab)
			if err != nil {
				return "", err
			}
			writeCSV("table1", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
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
			writeCSV("fig4", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"table2", func() (string, error) {
			r, err := experiments.Table2(lab)
			if err != nil {
				return "", err
			}
			writeCSV("table2", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"fig5", func() (string, error) {
			r, err := experiments.Fig5(lab)
			if err != nil {
				return "", err
			}
			writeCSV("fig5", func(f *os.File) error { return r.WriteCSV(f) })
			return r.Render(), nil
		}},
		{"chip", func() (string, error) {
			r, err := experiments.ChipEnergy(lab)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
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

	ran := 0
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		s, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		emit("## " + e.name + "\n\n" + s + "\n")
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snnbench: nothing selected by -run=%q\n", *run)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "snnbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
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
