package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"burstsnn/internal/kernels"
)

// trainedParamsSHA256 holds, per tiny baseline, the SHA-256 of every
// trained parameter's float64 bits (little-endian, in Network.Params
// order). The values were recorded from the trainer's scalar Go matrix
// loops, before its products moved onto the float64 scatter kernel: any
// tier of that kernel must train to the same bits.
var trainedParamsSHA256 = map[string]string{
	"digits":     "eb7f439f76e3196f65d76ca19ed4d607c5fd6246d55dbc10ec74a4fe60b1cbca",
	"textures10": "8faccdf01ae46e0729c1f47323d7a7a3ea7e9a0ee2b812ae6dd3a0c0fa2c4ff4",
}

// TestTrainingMatchesParentGolden hashes the parameters of the tiny
// digits MLP and textures10 LeNetMini, trained at the active kernel
// dispatch level (the shared test Lab's models, so no extra training),
// against the recorded values. Run it under KERNELS_LEVEL=purego, avx2
// and avx512 to cover every tier.
func TestTrainingMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler may fuse c += a*b into an FMA on arm64, ppc64
		// and s390x; the golden holds the separately rounded amd64 bits.
		t.Skip("golden holds amd64 (non-FMA) float64 bits")
	}
	l := testLab(t)
	for _, name := range []string{"digits", "textures10"} {
		m, err := l.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, p := range m.Net.Params() {
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != trainedParamsSHA256[name] {
			t.Errorf("%s (level %s): trained parameters hash %s, want %s",
				name, kernels.ActiveLevel(), got, trainedParamsSHA256[name])
		}
	}
}
