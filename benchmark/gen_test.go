package main

import (
	"encoding/json"
	"slices"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/serve"
)

func TestSameSeedSameRequestSequence(t *testing.T) {
	for _, unique := range []bool{true, false} {
		a, b := newTraffic(7, 100, unique), newTraffic(7, 100, unique)
		sa, sb := make([]float64, a.inputSize()), make([]float64, b.inputSize())
		for i := uint64(0); i < 350; i++ {
			ia, la := a.request(i, sa)
			ib, lb := b.request(i, sb)
			if la != lb || !slices.Equal(ia, ib) {
				t.Fatalf("unique=%v: request %d differs between two generators of one seed", unique, i)
			}
		}
	}
}

func TestDifferentSeedDifferentImages(t *testing.T) {
	a, b := newTraffic(1, 100, false), newTraffic(2, 100, false)
	seen := map[uint64]bool{}
	for i := range a.base {
		seen[coding.HashImage(a.base[i].Image)] = true
	}
	for i := range b.base {
		if seen[coding.HashImage(b.base[i].Image)] {
			t.Fatalf("seed 2 image %d also appears under seed 1", i)
		}
	}
}

// The three pixel-verified caches key on coding.HashImage and verify the
// pixels: distinct hashes are what makes every unique request a miss.
func TestUniqueRequestsNeverRepeat(t *testing.T) {
	const requests = 100_000
	tr := newTraffic(3, 2000, true)
	scratch := make([]float64, tr.inputSize())
	seen := make(map[uint64]struct{}, requests)
	for i := uint64(0); i < requests; i++ {
		img, label := tr.request(i, scratch)
		if want := tr.base[i%uint64(len(tr.base))].Label; label != want {
			t.Fatalf("request %d: label %d, base image's is %d", i, label, want)
		}
		if v := img[stampPixel]; v <= 0 || v >= 1 {
			t.Fatalf("request %d: stamped pixel %v outside (0,1)", i, v)
		}
		seen[coding.HashImage(img)] = struct{}{}
	}
	if len(seen) != requests {
		t.Fatalf("%d consecutive unique requests have %d distinct image hashes", requests, len(seen))
	}
}

func TestReplayCyclesTheStoredSet(t *testing.T) {
	tr := newTraffic(5, 50, false)
	n := uint64(len(tr.base))
	if n != 50 {
		t.Fatalf("asked for 50 images, got %d", n)
	}
	counts := make([]int, classes)
	for i := uint64(0); i < n; i++ {
		first, label := tr.request(i, nil)
		again, _ := tr.request(i+3*n, nil)
		if &first[0] != &again[0] {
			t.Fatalf("request %d and %d are not the same stored image", i, i+3*n)
		}
		counts[label]++
	}
	for class, c := range counts {
		if c != int(n)/classes {
			t.Fatalf("class %d has %d images, want %d (balanced)", class, c, int(n)/classes)
		}
	}
}

// The program under test receives a model name and pixels: nothing in a
// request tells it the seed or which workload is running.
func TestRequestCarriesOnlyGeneratedInput(t *testing.T) {
	tr := newTraffic(9, 10, true)
	img, _ := tr.request(0, make([]float64, tr.inputSize()))
	body, err := json.Marshal(serve.ClassifyRequest{Model: modelName, Image: img})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields["model"] == nil || fields["image"] == nil {
		t.Fatalf("request body has fields %v, want exactly model and image", fields)
	}
	if string(fields["model"]) != `"`+modelName+`"` {
		t.Fatalf("model field is %s", fields["model"])
	}
}
