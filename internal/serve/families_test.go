package serve

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"burstsnn/internal/obs"
)

// tableExempt lists the Snapshot fields with no row in modelFamilies:
// the ones Snapshot.Derive computes from fields (or buckets) that do have
// one, and the retired ones that always read zero. Anything else without
// a row fails the test below.
var tableExempt = map[string]string{
	"Errors":             "sum of the three errors_total{kind} fields",
	"EarlyExitRate":      "EarlyExits / Requests",
	"P50Ms":              "total stage histogram estimate",
	"P90Ms":              "total stage histogram estimate",
	"P99Ms":              "total stage histogram estimate",
	"Stages":             "digest of the stage_duration_seconds buckets",
	"Batches":            "retired with the lockstep route: always zero, kept for the benchmark's reader",
	"MeanBatchOccupancy": "retired with the lockstep route: always zero, kept for the benchmark's reader",
	"ExitHistoryHits":    "retired with the exit-step history: always zero, kept for the benchmark's reader",
	"ExitHistoryMisses":  "retired with the exit-step history: always zero, kept for the benchmark's reader",
	"DedupedRequests":    "retired with the batcher's in-batch dedupe: always zero, kept for the benchmark's reader",
	"EncoderCacheHits":   "retired with the quantization cache: always zero, kept for the benchmark's reader",
	"EncoderCacheMisses": "retired with the quantization cache: always zero, kept for the benchmark's reader",
}

// snapshotLeaves walks every exported scalar and string field of a
// Snapshot outside the exempt top-level fields, nested structs included.
func snapshotLeaves(s *Snapshot) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			if _, skip := tableExempt[name]; skip {
				continue
			}
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(f, name+".")
			} else {
				out[name] = f
			}
		}
	}
	walk(reflect.ValueOf(s).Elem(), "")
	return out
}

// filledSnapshot gives every leaf a distinct non-zero value, times scale.
// String gauges get the value that reads 1, so zeroing them moves a sample.
func filledSnapshot(scale int) Snapshot {
	var s Snapshot
	n := 0
	leaves := snapshotLeaves(&s)
	for _, name := range slices.Sorted(maps.Keys(leaves)) {
		n++
		switch f := leaves[name]; f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n * scale))
		case reflect.Float64:
			f.SetFloat(float64(n*scale) + 0.5)
		case reflect.String:
			f.SetString(fmt.Sprintf("%s-%d", name, scale))
		default:
			panic("filledSnapshot: unhandled kind at " + name)
		}
	}
	for _, f := range modelFamilies {
		for _, sr := range f.Series {
			if sr.Is != "" {
				*sr.Field(&s).(*string) = sr.Is
			}
		}
	}
	return s
}

func renderFamilies(t *testing.T, s Snapshot) string {
	t.Helper()
	var sb strings.Builder
	pw := obs.NewPromWriter(&sb)
	rows := []PromRow{{Labels: []obs.Label{{Name: "model", Value: "m"}}, Snap: &s, Hists: &ModelHists{}}}
	WriteModelFamilies(pw, "burstsnn_", true, rows, rows)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidatePromText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("table page invalid: %v\n%s", err, sb.String())
	}
	return sb.String()
}

// TestMetricTableCoversSnapshot is what makes "added the field, forgot
// the fleet" impossible: every Snapshot field must have exactly one row
// in modelFamilies (or a reason in tableExempt), a row with a family name
// must move a sample on the page, and merging two shards' snapshots must
// fold every field by its declared rule.
func TestMetricTableCoversSnapshot(t *testing.T) {
	a, b := filledSnapshot(1), filledSnapshot(3)
	page := renderFamilies(t, a)

	// Index the rows by the field they point at.
	type row struct {
		fam family
		sr  series
	}
	rows := map[uintptr]row{}
	for _, f := range modelFamilies {
		for _, sr := range f.Series {
			p := reflect.ValueOf(sr.Field(&a)).Pointer()
			if prev, dup := rows[p]; dup {
				t.Errorf("families %q and %q both claim one field", prev.fam.Name, f.Name)
			}
			rows[p] = row{f, sr}
		}
	}
	for name := range tableExempt {
		top, _, _ := strings.Cut(name, ".")
		if _, ok := reflect.TypeOf(a).FieldByName(top); !ok {
			t.Errorf("tableExempt names %q, which Snapshot no longer has", name)
		}
	}

	var merged Snapshot
	MergeSnapshot(&merged, a)
	MergeSnapshot(&merged, b)
	mergedLeaves, bLeaves := snapshotLeaves(&merged), snapshotLeaves(&b)
	num := func(v reflect.Value) float64 {
		if v.CanInt() {
			return float64(v.Int())
		}
		return v.Float()
	}

	leaves := snapshotLeaves(&a)
	for _, name := range slices.Sorted(maps.Keys(leaves)) {
		f := leaves[name]
		r, ok := rows[f.Addr().Pointer()]
		if !ok {
			t.Errorf("Snapshot.%s has no row in modelFamilies and no reason in tableExempt", name)
			continue
		}
		delete(rows, f.Addr().Pointer())

		// Exposition: zeroing the field changes the page iff it has a family.
		zeroed := a
		reflect.ValueOf(r.sr.Field(&zeroed)).Elem().SetZero()
		if moved := renderFamilies(t, zeroed) != page; moved != (r.fam.Name != "") {
			t.Errorf("Snapshot.%s: moves a sample = %v, but its family is named %q", name, moved, r.fam.Name)
		}

		// Merge: the declared rule, checked against plain arithmetic.
		got, bv := mergedLeaves[name], bLeaves[name]
		switch f.Kind() {
		case reflect.String:
			if got.String() != f.String() {
				t.Errorf("Snapshot.%s merged to %q, want the first shard's %q", name, got.String(), f.String())
			}
		default:
			x, y := num(f), num(bv)
			want := map[mergeRule]float64{mergeSum: x + y, mergeMax: math.Max(x, y), mergeFirst: x}[r.sr.Merge]
			if r.sr.Merge == mergeMean {
				wa, wb := sample(r.sr.Weight(&a)), sample(r.sr.Weight(&b))
				want = (x*wa + y*wb) / (wa + wb)
			}
			if math.Abs(num(got)-want) > 1e-9*want {
				t.Errorf("Snapshot.%s merged to %v, want %v by rule %d", name, num(got), want, r.sr.Merge)
			}
		}
	}
	for _, r := range rows {
		t.Errorf("family %q has a row pointing outside the walked Snapshot fields (exempt field?)", r.fam.Name)
	}

	// The exempt fields are Derive's: recomputed from the merged fields
	// and buckets, never folded.
	var hists ModelHists
	for _, ms := range []float64{1, 2, 4, 400} {
		h := NewMetrics()
		h.Observe(Outcome{}, time.Duration(ms*float64(time.Millisecond)))
		hists.Merge(h.Hists())
	}
	merged.Derive(hists)
	if want := merged.AdmissionErrors + merged.SheddedRequests + merged.SimulationErrors; merged.Errors != want {
		t.Errorf("merged Errors = %d, want the kinds' sum %d", merged.Errors, want)
	}
	if want := float64(merged.EarlyExits) / float64(merged.Requests); merged.EarlyExitRate != want {
		t.Errorf("merged EarlyExitRate = %v, want %v", merged.EarlyExitRate, want)
	}
	if total := merged.Stages["total"]; total.Count != 4 || merged.P50Ms != total.P50 || merged.P99Ms != total.P99 {
		t.Errorf("merged total stage = %+v with p50/p99 %v/%v, want 4 observations under the summary keys", total, merged.P50Ms, merged.P99Ms)
	}
	assertInBucketOf(t, 50, merged.P50Ms, 2)
	assertInBucketOf(t, 99, merged.P99Ms, 400)
}
