// Command benchmark is the repository's benchmark: four closed-loop
// serving workloads, nine end-to-end metrics measured untraced, and a
// traced per-layer ladder from the float32 kernels to the proc fleet.
// It is the instrument performance claims are measured with and claims
// none itself. README.md in this directory is the manual; BENCHMARK.json
// at the repository root is the contract it is run under.
//
//	go run ./benchmark --workload http-unique --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload http-unique --seed 1 --seconds 10 --trace 1
//	go run ./benchmark --selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"burstsnn/internal/kernels"
)

// deadline bounds one run end to end: the contract allows 180 s.
const deadline = 170 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed      = flag.Uint64("seed", 1, "seed the request images are generated from")
		seconds   = flag.Int("seconds", 10, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 records spans around every call, walks the ladder and prints the per-layer metrics; 0 prints the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice back to back and compare the pairs against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	// SIGINT/SIGTERM cancel the context; every exit path then unwinds
	// through run's deferred teardown (workers reaped, temp dir removed).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := options{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		warmup:  warmup,
		setups:  setupReps,
		log:     os.Stderr,
	}
	if *selfcheck {
		return selfCheck(ctx, base)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	base.workload = w
	if base.traced = *trace == 1; base.traced {
		base.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
		base.spansOut = filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.csv", w.Name, *seed))
	}
	rep, err := run(ctx, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	printReport(os.Stdout, rep)
	if err := printResult(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// fingerprint identifies the host and build a report was measured on.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d (1 while a workload runs) kernels=%s/%s (detected/active) %s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), kernels.DetectedLevel(), kernels.ActiveLevel(), runtime.Version(), commit)
}

// specsFor returns the metric list a report carries.
func specsFor(rep *report) []metric {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

// printReport writes the human-readable form: fingerprint, every metric
// by name with its unit, and the checks.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "host: %s\n", fingerprint())
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, %d latency samples\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.Attempted-rep.Failed)
	for _, m := range specsFor(rep) {
		fmt.Fprintf(w, "  %-42s %14.4f %-6s (%s is better)\n", m.Name, rep.Metrics[m.Name], m.Unit, m.Better)
	}
	for _, c := range rep.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s: %s\n", verdict, c.Name, c.Detail)
	}
}

// printResult writes the contract's last line: one JSON object with the
// keys correct, attempted, failed and metrics.
func printResult(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range specsFor(rep) {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// selfCheck runs every workload twice back to back on the same code and
// prints, per workload and end-to-end metric, both values, how much
// worse the second is than the first (and the first than the second),
// and the bound. Any pair further apart than its bound fails the check:
// the benchmark could not tell a regression of that size from noise.
func selfCheck(ctx context.Context, base options) int {
	fmt.Printf("host: %s\n", fingerprint())
	failed := false
	for _, w := range workloads {
		var pair [2]*report
		for i := range pair {
			opt := base
			opt.workload = w
			runCtx, cancel := context.WithTimeout(ctx, deadline)
			rep, err := run(runCtx, opt)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if !rep.correct() {
				printReport(os.Stdout, rep)
				failed = true
			}
			pair[i] = rep
		}
		fmt.Printf("%s\n", w.Name)
		for _, m := range endToEnd {
			a, b := pair[0].Metrics[m.Name], pair[1].Metrics[m.Name]
			gap := max(worsening(m, a, b), worsening(m, b, a))
			verdict := "ok"
			if gap > m.Bound {
				verdict, failed = "EXCEEDS BOUND", true
			}
			fmt.Printf("  %-16s %14.4f %14.4f %-6s gap %6.2f%%  bound %5.1f%%  %s\n",
				m.Name, a, b, m.Unit, 100*gap, 100*m.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
