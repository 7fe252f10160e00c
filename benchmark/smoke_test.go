package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// A structure-only smoke test of the two workloads that run on an
// in-process server, at a fifth of a second: every end-to-end metric is
// present and finite, nothing failed, and the checks that do not depend
// on how fast the host is hold. No timing thresholds.
func TestWorkloadSmoke(t *testing.T) {
	// Checks whose verdict depends on how many requests fit in the window.
	timing := map[string]bool{
		"p99 has ten samples beyond it":           true,
		"server and client count the same window": true,
		"accuracy at or above the floor":          true,
	}
	for _, name := range []string{"direct-saturate", "http-replay"} {
		t.Run(name, func(t *testing.T) {
			w, ok := findWorkload(name)
			if !ok {
				t.Fatalf("no workload %q", name)
			}
			var log bytes.Buffer
			rep, err := run(context.Background(), options{
				workload: w, seed: 11,
				measure: 200 * time.Millisecond, warmup: 100 * time.Millisecond,
				setups: 1, log: &log,
			})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Fatalf("attempted %d, failed %d\n%s", rep.Attempted, rep.Failed, log.String())
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := rep.Metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("metric %s = %v (present %v): want a positive number", m.Name, v, ok)
				}
			}
			if got := rep.Metrics["ok_share"]; got != 1 {
				t.Errorf("ok_share = %v, want 1", got)
			}
			if got := rep.Metrics["accuracy"]; got < 0.9 {
				t.Errorf("accuracy = %v: the served model is not the trained one", got)
			}
			for _, c := range rep.Checks {
				if !c.OK && !timing[c.Name] {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}

			var out bytes.Buffer
			if err := printResult(&out, rep); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("result line is not one JSON object: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if line[key] == nil {
					t.Errorf("result line has no %q", key)
				}
			}
			if len(line) != 4 {
				t.Errorf("result line has %d keys, want exactly 4", len(line))
			}
		})
	}
}
