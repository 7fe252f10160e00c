package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"burstsnn/internal/coding"
	"burstsnn/internal/dataset"
	"burstsnn/internal/mathx"
)

// decodeBytes runs a JSON body through the codec the way ReadClassify
// does after the body read: into a pooled WireRequest's own buffers.
func decodeBytes(data []byte) (*WireRequest, error) {
	wr := wirePool.Get().(*WireRequest)
	wr.body.Reset()
	wr.body.Write(data)
	return wr, wr.decode(nil)
}

// decodeFrameBytes decodes one frame into a pooled WireRequest, as the
// classify stream does.
func decodeFrameBytes(data []byte) (*WireRequest, error) {
	wr := wirePool.Get().(*WireRequest)
	return wr, wr.decodeFrame(data)
}

// benchRequest is the parser's hard case: 768 uniform random pixels, nine
// in ten printed with 16–17 significant digits (a 14.8 kB body).
func benchRequest() ClassifyRequest {
	return ClassifyRequest{Model: "textures10", Image: allocImage(11, 768)}
}

// texturesRequest is shaped like the repository benchmark's requests: one
// dataset.SynthTextures test image (3×16×16, a 13.6 kB body; the
// benchmark's average 13.8 kB). Over 3,000 such images, 57 % of pixels
// take scanFloat's Clinger path, 37 % its division and 6 % are zero.
func texturesRequest() ClassifyRequest {
	cfg := dataset.DefaultTexturesConfig()
	cfg.TrainPerClass, cfg.TestPerClass = 0, 1
	return ClassifyRequest{Model: "textures10", Image: dataset.SynthTextures(cfg).Test[3].Image}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameRequest(t *testing.T, got, want ClassifyRequest) {
	t.Helper()
	if got.Model != want.Model || got.MaxSteps != want.MaxSteps || got.NoEarlyExit != want.NoEarlyExit {
		t.Fatalf("decoded %q/%d/%v, want %q/%d/%v", got.Model, got.MaxSteps, got.NoEarlyExit,
			want.Model, want.MaxSteps, want.NoEarlyExit)
	}
	if len(got.Image) != len(want.Image) {
		t.Fatalf("decoded %d pixels, want %d", len(got.Image), len(want.Image))
	}
	for i := range want.Image {
		if math.Float64bits(got.Image[i]) != math.Float64bits(want.Image[i]) {
			t.Fatalf("pixel %d = %x, want %x", i, math.Float64bits(got.Image[i]), math.Float64bits(want.Image[i]))
		}
	}
}

// TestParseStrictShape pins which bodies take the fast path. Declined
// bodies are not errors — FuzzDecodeClassify checks they still decode
// as encoding/json decodes them — but a common shape sliding into the
// decline column would silently give the speed back.
func TestParseStrictShape(t *testing.T) {
	accept := []string{
		string(mustMarshal(t, benchRequest())),
		`{"model":"m","image":[0,-0,1e-3,2.5E+2,0.1],"maxSteps":-0,"noEarlyExit":true}`,
		" {\n\t\"image\" : [ 1 , 2 ] ,\r\n \"model\" : \"a b\" } \n",
		`{"noEarlyExit":false}`,
		`{"maxSteps":123456789012345678}`,
	}
	for _, body := range accept {
		if _, _, ok := parseStrict([]byte(body), nil); !ok {
			t.Errorf("declined %.60q", body)
		}
	}
	decline := []string{
		``, `null`, `[]`, `{}`, `{"model":"m"`, `{"model":"m",}`,
		`{"Model":"m"}`, `{"image":[1],"image":[2]}`, `{"model":"a","model":"b"}`, `{"extra":1}`,
		`{"model":"a\nb"}`, "{\"model\":\"a\x01\"}", `{"model":"é"}`, `{"model":null}`, `{"mod\u0065l":"m"}`,
		`{"image":null}`, `{"image":[]}`, `{"image":[[1]]}`, `{"image":[1,]}`, `{"image":[1 2]}`,
		`{"image":[01]}`, `{"image":[1.]}`, `{"image":[.5]}`, `{"image":[+1]}`, `{"image":[1e]}`,
		`{"image":[1e999]}`, `{"image":[NaN]}`, `{"image":[0x1p-2]}`, `{"image":[1_0]}`, `{"image":["1"]}`,
		`{"maxSteps":1.0}`, `{"maxSteps":1e2}`, `{"maxSteps":1234567890123456789}`, `{"maxSteps":"1"}`,
		`{"noEarlyExit":1}`, `{"noEarlyExit":True}`, `{"noEarlyExit":truex}`,
		`{"model":"m"} x`, `{"model":"m"}{"model":"n"}`,
	}
	for _, body := range decline {
		if _, _, ok := parseStrict([]byte(body), nil); ok {
			t.Errorf("accepted %q", body)
		}
	}
}

// FuzzDecodeClassify is the differential check behind "the accepted set,
// the results and the error texts are exactly encoding/json's": on every
// input the codec and json.Decoder agree on accept/reject, on the error
// text, and on every decoded bit.
func FuzzDecodeClassify(f *testing.F) {
	f.Add(mustMarshal(f, benchRequest()))
	f.Add([]byte(`{"model":"m","image":[0,-0,1e-3],"maxSteps":7,"noEarlyExit":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ClassifyRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		got, gotErr := decodeBytes(data)
		defer got.Release(true)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("encoding/json: %v; codec: %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("encoding/json: %v; codec: %v", wantErr, gotErr)
			}
			return
		}
		sameRequest(t, got.ClassifyRequest, want)
	})
}

// scanNumber skips one number in JSON's grammar at b[i] — the grammar
// written out plainly, as the oracle scanFloat's accept set is held to.
func scanNumber(b []byte, i int) (end int, ok bool) {
	if i, ok = scanIntPart(b, i); !ok {
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = scanDigits(b, i+1); !ok {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = scanDigits(b, i); !ok {
			return i, false
		}
	}
	return i, true
}

// checkScanFloat compares scanFloat at b[0] against scanNumber +
// strconv.ParseFloat: the same accept/decline, and on accept the same
// end and the same bits.
func checkScanFloat(t *testing.T, b []byte) {
	t.Helper()
	end, ok := scanNumber(b, 0)
	var want float64
	if ok {
		var err error
		want, err = strconv.ParseFloat(string(b[:end]), 64)
		ok = err == nil
	}
	f, gotEnd, gotOK := scanFloat(b, 0)
	switch {
	case gotOK != ok:
		t.Fatalf("%q: scanFloat ok=%v, grammar+ParseFloat ok=%v", b, gotOK, ok)
	case ok && (gotEnd != end || math.Float64bits(f) != math.Float64bits(want)):
		t.Fatalf("%q: scanFloat %v (%#x) ending at %d, ParseFloat %v (%#x) ending at %d",
			b, f, math.Float64bits(f), gotEnd, want, math.Float64bits(want), end)
	}
}

// scanFloatEdges are the inputs where an exact fast path goes wrong
// first: each domain's boundary, the 19/20-digit split, signed zeros,
// exponent spellings, round-half-to-even ties, and ParseFloat's exponent
// saturation (its literal stops growing at 10000 while the fraction's
// leading zeros count exactly, so these read 1e8, 1e9, 0 and 0).
var scanFloatEdges = []string{
	"0." + strings.Repeat("0", 9_990) + "1e9999",
	"0." + strings.Repeat("0", 9_990) + "1e10000",
	"0." + strings.Repeat("0", 99_999) + "1e100005",
	"0." + strings.Repeat("0", 999_999) + "1e10000000000",
	"0", "-0", "0e5", "-0.0e-5", "0.000", "1", "-1", "0.1", "0.3", "100", "1e0", "1E-0", "0.5e1",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"900719925474099.3", "0.9007199254740993", "18014398509481985e-1",
	"9999999999999999999e-19", "0.9999999999999999999", "0.99999999999999999999",
	"1234567890123456789", "12345678901234567890", "123456789012345678.9", "1.234567890123456789e-5",
	"1e-19", "1e-20", "1e-22", "1e-23", "1e22", "1e23", "1E+2", "1e+22", "123.456e-3",
	"0.000000123", "0.00000000000000000001234", "0.0000000000000000000000000001",
	"4503599627370496.5", "4503599627370497.5", "-4503599627370496.5", "4503599627370496.49999999",
	"0.30196078431372547", "0.7372549019607844", "0.49999999999999994", "0.5000000000000001",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "5e-324", "2e-324", "1e-400", "-1e-400",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400", "1e9999999999999",
	"01", "-", "+1", ".5", "1.", "1e", "1e+", "1e-", "-.5", "0x10", "1.5.2", "1e5e5", "", " 1",
}

// TestScanFloatMatchesParseFloat: on the edge table and on a million
// generated numbers, scanFloat returns ParseFloat's bits and scanNumber's
// end.
func TestScanFloatMatchesParseFloat(t *testing.T) {
	for _, s := range scanFloatEdges {
		checkScanFloat(t, []byte(s))
	}
	r := mathx.NewRNG(29)
	var buf []byte
	for n := 0; n < 1<<20; n++ {
		buf = buf[:0]
		switch n % 5 {
		case 0: // shortest form of arbitrary bits, every exponent
			f := math.Float64frombits(r.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		case 1: // shortest form of a pixel-like value at a random scale
			f := r.Float64() * math.Pow10(r.Intn(51)-25)
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		case 2: // fixed form, 15–21 digits: both sides of the 19-digit split
			buf = strconv.AppendFloat(buf, r.Float64()*math.Pow10(r.Intn(4)), 'f', 15+r.Intn(7), 64)
		case 3: // a random digit string of up to 21 digits
			buf = appendDigitString(buf, r)
		default: // a halfway case between two floats, or one unit beside it
			buf = appendHalfway(buf, r)
		}
		checkScanFloat(t, buf)
	}
}

// appendDigitString appends a random JSON number of up to 21 digits:
// optional sign, integer part, fraction and exponent.
func appendDigitString(buf []byte, r *mathx.RNG) []byte {
	if r.Intn(2) == 0 {
		buf = append(buf, '-')
	}
	digits := func(n int, lead bool) {
		for k := 0; k < n; k++ {
			d := byte(r.Intn(10))
			if k == 0 && lead && d == 0 {
				d = 1
			}
			buf = append(buf, '0'+d)
		}
	}
	total := 1 + r.Intn(21)
	intLen := r.Intn(total + 1)
	if intLen == 0 {
		buf = append(buf, '0')
	} else {
		digits(intLen, true)
	}
	if frac := total - intLen; frac > 0 {
		buf = append(buf, '.')
		digits(frac, false)
	}
	if r.Intn(3) == 0 {
		buf = append(buf, "eE"[r.Intn(2)])
		if s := r.Intn(3); s < 2 {
			buf = append(buf, "+-"[s])
		}
		buf = strconv.AppendInt(buf, int64(r.Intn(30)), 10)
	}
	return buf
}

// appendHalfway appends, exactly, (2M+1)·2^-p for a 53-bit M: the midpoint
// of M·2^(1-p) and (M+1)·2^(1-p), which must round to the even one. It
// prints with p decimals and 17–20 significant digits; two times in
// three the last digit is nudged one unit either way, breaking the tie.
func appendHalfway(buf []byte, r *mathx.RNG) []byte {
	h := new(big.Int).SetUint64((1<<52|r.Uint64()>>12)<<1 | 1)
	p := 1 + r.Intn(4)
	h.Mul(h, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(p)), nil))
	switch r.Intn(3) {
	case 0:
		h.Add(h, big.NewInt(1))
	case 1:
		h.Sub(h, big.NewInt(1))
	}
	s := h.String()
	buf = append(buf, s[:len(s)-p]...)
	buf = append(buf, '.')
	return append(buf, s[len(s)-p:]...)
}

// FuzzScanFloat holds scanFloat to the grammar oracle and ParseFloat on
// arbitrary bytes.
func FuzzScanFloat(f *testing.F) {
	for _, s := range scanFloatEdges {
		f.Add([]byte(s))
	}
	f.Fuzz(checkScanFloat)
}

// FuzzDecodeFrame: the frame decoder never panics, never holds more
// pixel memory than the body has bytes for, accepts only canonical
// frames (re-encoding an accepted frame reproduces it), rejects
// non-finite pixels, and round-trips every encodable request bit-exactly.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, benchRequest()), "textures10", int64(0), false)
	f.Add(appendFrame(nil, ClassifyRequest{Model: "m", Image: []float64{math.Copysign(0, -1), 5e-324}, MaxSteps: -3, NoEarlyExit: true}),
		"\xffm", int64(math.MinInt64), true)
	f.Fuzz(func(t *testing.T, data []byte, model string, maxSteps int64, noEarlyExit bool) {
		wr := &WireRequest{}
		if err := wr.decodeFrame(data); err != nil {
			if cap(wr.pixels)*8 > len(data) {
				t.Fatalf("rejected %d-byte frame left a %d-pixel buffer", len(data), cap(wr.pixels))
			}
		} else {
			if cap(wr.Image)*8 > len(data) {
				t.Fatalf("%d-byte frame decoded into a %d-pixel buffer", len(data), cap(wr.Image))
			}
			if again := appendFrame(nil, wr.ClassifyRequest); !bytes.Equal(again, data) {
				t.Fatalf("accepted a non-canonical frame: re-encodes to %x, was %x", again, data)
			}
		}

		// The same bytes, read as pixels, through encode → decode.
		req := ClassifyRequest{Model: model, MaxSteps: int(maxSteps), NoEarlyExit: noEarlyExit}
		finite := true
		for ; len(data) >= 8; data = data[8:] {
			p := math.Float64frombits(binary.LittleEndian.Uint64(data))
			finite = finite && !math.IsNaN(p) && !math.IsInf(p, 0)
			req.Image = append(req.Image, p)
		}
		got, err := decodeFrameBytes(appendFrame(nil, req))
		defer got.Release(true)
		if !finite {
			if err == nil {
				t.Fatal("a frame with a non-finite pixel was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		req.Model = strings.ToValidUTF8(model, "\uFFFD")
		sameRequest(t, got.ClassifyRequest, req)
	})
}

// TestFrameRejections names every way a frame is refused.
func TestFrameRejections(t *testing.T) {
	good := appendFrame(nil, ClassifyRequest{Model: "m", Image: []float64{0.5, 1}})
	patch := func(off int, b ...byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[off:], b)
		return out
	}
	le := func(f float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }
	cases := map[string][]byte{
		"shorter than the":  good[:frameHeaderLen-1],
		"bad magic":         patch(0, 'X'),
		"unsupported":       patch(4, 2),
		"unknown flag bits": patch(5, 0x82),
		"implies":           good[:len(good)-1],
		"header (model 1 bytes, 3 pixels) implies": patch(10, 3),
		"not valid UTF-8":                          patch(frameHeaderLen, 0xff),
		"pixel 1 is not finite":                    patch(len(good)-8, le(math.NaN())...),
		"pixel 0 is not finite":                    patch(len(good)-16, le(math.Inf(1))...),
	}
	for want, frame := range cases {
		wr, err := decodeFrameBytes(frame)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: got error %v", want, err)
		}
		wr.Release(true)
	}
	if wr, err := decodeFrameBytes(append(good, 0)); err == nil {
		t.Error("a frame with a trailing byte was accepted")
	} else {
		wr.Release(true)
	}
}

func postBody(ctx context.Context, h http.Handler, contentType string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", contentType)
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResult(t *testing.T, rec *httptest.ResponseRecorder) ClassifyResult {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res ClassifyResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFrameMatchesJSON: the same request as a frame on the classify
// stream and as JSON on POST /v1/classify gets the same answer, bit for
// bit but for the latency and the request id, and both see one
// response-cache key (the pixels arrive bit-identical either way).
func TestFrameMatchesJSON(t *testing.T) {
	s := testServer(t, Config{MaxDelay: -1})
	_, set := testModel(t)
	h, ctx := s.Handler(), context.Background()
	st := openStream(t, h)
	req := ClassifyRequest{Model: "digits", Image: set.Test[3].Image, MaxSteps: 40, NoEarlyExit: true}
	viaJSON := decodeResult(t, postBody(ctx, h, "application/json", mustMarshal(t, req)))
	viaFrame := st.call(t, AppendStreamRequest(nil, 7, req))
	if viaJSON.Steps != 40 || viaJSON.Cached || viaFrame.Status != http.StatusOK || viaFrame.ID != 7 ||
		viaFrame.Result.Cached {
		t.Fatalf("first two sightings: json %+v, frame %+v", viaJSON, viaFrame)
	}
	third := st.call(t, AppendStreamRequest(nil, 8, req))
	if !third.Result.Cached {
		t.Error("third sighting missed the response cache: the JSON and frame requests did not share a key")
	}
	for _, got := range []ClassifyResult{viaFrame.Result, third.Result} {
		got.LatencyMs, got.RequestID, got.Cached = viaJSON.LatencyMs, viaJSON.RequestID, viaJSON.Cached
		if resultBits(got) != resultBits(viaJSON) {
			t.Errorf("frame answer %s, JSON answer %s", resultBits(got), resultBits(viaJSON))
		}
	}
}

// TestOversizeBodyIs413: one byte over the 8 MiB cap is "too large", not
// "malformed", as a JSON body and as a stream frame; a malformed body at
// the cap is still a 400. The stream skips the oversize frame unread and
// goes on serving.
func TestOversizeBodyIs413(t *testing.T) {
	s := testServer(t, Config{})
	h, ctx := s.Handler(), context.Background()
	over := bytes.Repeat([]byte(" "), maxRequestBytes+1)
	if rec := postBody(ctx, h, "application/json", over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("JSON, %d bytes: status %d, want 413", len(over), rec.Code)
	}
	if rec := postBody(ctx, h, "application/json", over[:maxRequestBytes]); rec.Code != http.StatusBadRequest {
		t.Errorf("JSON, %d bytes: status %d, want 400", maxRequestBytes, rec.Code)
	}

	st := openStream(t, h)
	for id, c := range []struct {
		frame []byte
		want  int
	}{{over, http.StatusRequestEntityTooLarge}, {over[:maxRequestBytes], http.StatusBadRequest}} {
		envelope := binary.LittleEndian.AppendUint32(nil, uint32(8+len(c.frame)))
		envelope = binary.LittleEndian.AppendUint64(envelope, uint64(id))
		if rep := st.call(t, append(envelope, c.frame...)); rep.ID != uint64(id) || rep.Status != c.want {
			t.Errorf("frame of %d bytes: reply %d for request %d, want %d", len(c.frame), rep.Status, rep.ID, c.want)
		}
	}
	_, set := testModel(t)
	if rep := st.call(t, AppendStreamRequest(nil, 1, ClassifyRequest{Model: "digits", Image: set.Test[0].Image})); rep.Status != http.StatusOK {
		t.Errorf("after the refused frames: status %d (%s), want 200", rep.Status, rep.Err)
	}
}

// TestAbandonedRequestKeepsItsPixels is the buffer-ownership rule under
// the race detector: a request whose context is canceled while its batch
// is still executing has returned to its handler, but the batch goes on
// to simulate the pixel slice it was handed. The handler must not have
// recycled that slice — the requests served meanwhile decode into pooled
// buffers — so the outcome the batch records must be the one the
// original pixels produce.
func TestAbandonedRequestKeepsItsPixels(t *testing.T) {
	s := testServer(t, Config{MaxBatch: 1, MaxDelay: -1})
	_, set := testModel(t)
	h, ctx := s.Handler(), context.Background()
	bodyX := mustMarshal(t, ClassifyRequest{Model: "digits", Image: set.Test[0].Image})
	bodyY := mustMarshal(t, ClassifyRequest{Model: "digits", Image: set.Test[1].Image})
	post := func(ctx context.Context, body []byte) *httptest.ResponseRecorder {
		return postBody(ctx, h, "application/json", body)
	}

	// The slow batch: once armed, the next batch parks after it has
	// dropped canceled requests and before it simulates.
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s.mu.Lock()
	b := s.entries["digits"].batcher
	s.mu.Unlock()
	b.injectFault = func() error {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	}

	want := decodeResult(t, post(ctx, bodyX)) // X's first sighting
	for i := 0; i < 3; i++ {                  // Y: seen, promoted, hit
		if res := decodeResult(t, post(ctx, bodyY)); res.Cached != (i == 2) {
			t.Fatalf("Y sighting %d: cached=%v", i+1, res.Cached)
		}
	}

	// X again, abandoned mid-batch.
	armed.Store(true)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-entered:
			cancel()
		case <-cctx.Done():
		}
	}()
	if rec := post(cctx, bodyX); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: status %d, want 503", rec.Code)
	}
	// Requests whose buffers are recycled: cache hits and failed decodes
	// (Y's body cut short has already written every pixel). Half before
	// the batch resumes, half while it simulates.
	hammer := func() {
		for i := 0; i < 50; i++ {
			if res := decodeResult(t, post(ctx, bodyY)); !res.Cached {
				t.Fatal("Y missed the response cache")
			}
			if rec := post(ctx, bodyY[:len(bodyY)-2]); rec.Code != http.StatusBadRequest {
				t.Fatalf("truncated body: status %d", rec.Code)
			}
		}
	}
	hammer()
	close(release)
	hammer()

	// Shutdown waits for the batch; its outcome was X's second sighting,
	// so the cache now holds it, verified against X's pixels.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := s.Model("digits")
	if err != nil {
		t.Fatal(err)
	}
	x := set.Test[0].Image
	out, ok := b.cache.Lookup(coding.HashImage(x), x, m.Config().Exit)
	if !ok {
		t.Fatal("the abandoned request's outcome is not cached under its own pixels")
	}
	if out.Prediction != want.Prediction || out.Steps != want.Steps || out.TotalSpikes() != want.Spikes {
		t.Errorf("abandoned request recorded %+v, its pixels produce %+v", out, want)
	}
}

// BenchmarkDecodeClassify is the codec rung by itself: the random-pixel
// body and the benchmark-shaped textures body, each through encoding/json
// as the handlers used to call it and through the codec.
func BenchmarkDecodeClassify(b *testing.B) {
	for _, body := range []struct {
		name string
		req  ClassifyRequest
	}{{"random", benchRequest()}, {"textures", texturesRequest()}} {
		data := mustMarshal(b, body.req)
		b.Run(body.name+"/std", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				var req ClassifyRequest
				if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				wr, err := decodeBytes(data)
				if err != nil {
					b.Fatal(err)
				}
				wr.Release(true)
			}
		})
	}
}

// BenchmarkFrameRoundTrip is the front→worker hop's frame codec cost:
// encode as ProcWorker.Classify does, decode as the worker's stream does.
func BenchmarkFrameRoundTrip(b *testing.B) {
	req := benchRequest()
	b.ReportAllocs()
	b.SetBytes(int64(len(appendFrame(nil, req))))
	for b.Loop() {
		wr, err := decodeFrameBytes(appendFrame(nil, req))
		if err != nil {
			b.Fatal(err)
		}
		wr.Release(true)
	}
}
