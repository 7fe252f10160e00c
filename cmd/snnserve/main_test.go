package main

import (
	"flag"
	"maps"
	"slices"
	"testing"

	"burstsnn/internal/serve"
)

// parse parses args on a fresh command line.
func parse(t *testing.T, args ...string) *cli {
	t.Helper()
	c := newCLI(flag.ContinueOnError)
	if err := c.fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c
}

// TestWorkerArgsForwardEachModelWeight: a front's weights reach each
// -worker child as one -model-weight per model, which the child's own
// flag parsing accepts and reads back into the same weights.
func TestWorkerArgsForwardEachModelWeight(t *testing.T) {
	front := parse(t, "-fleet", "2", "-fleet-workers", "proc", "-models", "a,b",
		"-model-weight", "a=2", "-model-weight", "b=1")
	args := workerArgs(front.fs)
	worker := parse(t, args...)
	if !worker.workerMode {
		t.Errorf("worker args %q do not set -worker", args)
	}
	want := map[string]float64{"a": 2, "b": 1}
	if !maps.Equal(worker.weights, want) {
		t.Errorf("worker weights %v from args %q, want %v", worker.weights, args, want)
	}
	if worker.models != "a,b" || worker.fleetN != 0 || worker.fleetBackend != "inproc" {
		t.Errorf("worker args %q: models %q, fleet %d %q; want a,b and no fleet",
			args, worker.models, worker.fleetN, worker.fleetBackend)
	}
}

// TestWorkerArgsCoverEveryFlag: every flag is either forwarded to a
// -worker child or named in frontOnly, never both. A new flag fails here
// until it is put on one side on purpose.
func TestWorkerArgsCoverEveryFlag(t *testing.T) {
	forwarded := []string{
		"models", "input", "hidden", "steps", "replicas", "window", "maxdelay", "dir", "tiny",
		"queue-depth", "max-replicas", "request-timeout", "response-cache", "degrade",
		"max-resident-models", "evict-idle", "model-weight",
		"log", "pprof", "slow-trace",
	}
	front := newCLI(flag.ContinueOnError)
	for name := range frontOnly {
		if front.fs.Lookup(name) == nil {
			t.Errorf("frontOnly names %q, which is not a flag", name)
		}
	}
	front.fs.VisitAll(func(f *flag.Flag) {
		if slices.Contains(forwarded, f.Name) == frontOnly[f.Name] {
			t.Errorf("flag -%s: forwarded %v, front-only %v; want exactly one",
				f.Name, slices.Contains(forwarded, f.Name), frontOnly[f.Name])
		}
		v := f.DefValue
		if f.Name == "model-weight" {
			v = "a=2"
		}
		if err := front.fs.Set(f.Name, v); err != nil {
			t.Fatalf("set -%s=%q: %v", f.Name, v, err)
		}
	})

	worker := parse(t, workerArgs(front.fs)...)
	var got []string
	worker.fs.Visit(func(f *flag.Flag) { got = append(got, f.Name) })
	want := append(slices.Clone(forwarded), "worker")
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("a worker receives flags %q, want %q", got, want)
	}
}

// TestExitPolicyFollowsServeDefault: the CLI's policy is serve's default
// for the budget, clamped so that budgets under its 16 minimum steps
// still register, and -window 0 disables early exit.
func TestExitPolicyFollowsServeDefault(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want serve.ExitPolicy
	}{
		{[]string{"-steps", "8"}, serve.ExitPolicy{MaxSteps: 8, MinSteps: 8, StableWindow: 8}},
		{[]string{"-steps", "16"}, serve.ExitPolicy{MaxSteps: 16, MinSteps: 16, StableWindow: 12}},
		{[]string{"-steps", "192"}, serve.ExitPolicy{MaxSteps: 192, MinSteps: 16, StableWindow: 12}},
		{[]string{"-steps", "8", "-window", "0"}, serve.ExitPolicy{MaxSteps: 8}},
		{[]string{"-steps", "16", "-window", "0"}, serve.ExitPolicy{MaxSteps: 16}},
		{[]string{"-steps", "192", "-window", "0"}, serve.ExitPolicy{MaxSteps: 192}},
	} {
		got := parse(t, tc.args...).exitPolicy()
		if got != tc.want {
			t.Errorf("%q: policy %+v, want %+v", tc.args, got, tc.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%q: %v", tc.args, err)
		}
	}
}
