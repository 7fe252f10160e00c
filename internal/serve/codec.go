package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The request codec: every hop that carries a ClassifyRequest — client
// to server, client to fleet front, front to worker process — reads it
// through ReadClassify. See internal/README.md "Request codec".

// maxRequestBytes caps a POST /v1/classify body, JSON or frame.
const maxRequestBytes = 8 << 20

// FrameContentType marks a POST /v1/classify body as the binary frame
// AppendFrame writes instead of JSON. The reply is JSON either way.
const FrameContentType = "application/x-burstsnn-classify-frame"

// Buffers past these capacities are dropped on Release instead of
// pooled, so one huge request cannot pin megabytes behind the pool.
const (
	maxPooledBody   = 256 << 10
	maxPooledPixels = 32 << 10
)

// WireRequest is one decoded POST /v1/classify body plus the pooled
// buffers it was decoded into. On the strict-JSON and frame paths Image
// aliases a pooled slice, which is why Release must be told whether the
// image ever left the handler.
type WireRequest struct {
	ClassifyRequest
	body   bytes.Buffer // the raw request; nothing references it after decode
	pixels []float64    // spare pixel buffer (nil while Image owns it)
	// lastLen is the previous strict-decoded image's length: a request
	// that keeps its slice leaves no spare, and the next one is sized
	// from this instead of grown by append.
	lastLen int
}

var wirePool = sync.Pool{New: func() any { return new(WireRequest) }}

// ReadClassify reads and decodes a POST /v1/classify body: the binary
// frame under FrameContentType, JSON otherwise. On failure it has
// already answered — 413 for a body over the 8 MiB cap, 400 for anything
// else — and returns nil. The caller must Release the result.
func ReadClassify(w http.ResponseWriter, r *http.Request) *WireRequest {
	wr := wirePool.Get().(*WireRequest)
	wr.body.Reset()
	_, readErr := wr.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := wr.decode(r.Header.Get("Content-Type") == FrameContentType, readErr); err != nil {
		wr.Release(true)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("invalid request body: %w", err))
		return nil
	}
	return wr
}

// Release returns the buffers to the pool. recycleImage may be true only
// when Image provably never escaped the handler: the decode failed, or
// the request was answered from the response cache. A request that was
// enqueued keeps its slice — SubmitTraced can return on ctx.Done() while
// the batch still simulates it.
func (wr *WireRequest) Release(recycleImage bool) {
	if recycleImage && cap(wr.Image) > cap(wr.pixels) {
		wr.pixels = wr.Image[:0]
	}
	wr.ClassifyRequest = ClassifyRequest{}
	if wr.body.Cap() > maxPooledBody {
		wr.body = bytes.Buffer{}
	}
	if cap(wr.pixels) > maxPooledPixels {
		wr.pixels = nil
	}
	wirePool.Put(wr)
}

// decode fills the embedded ClassifyRequest from wr.body. readErr is the
// error that ended the body read, if any. JSON goes through the strict
// decoder first; whatever it declines is handed, byte for byte and with
// the same terminal read error, to encoding/json, so the accepted set,
// the decoded values and the error texts are encoding/json's.
func (wr *WireRequest) decode(frame bool, readErr error) error {
	if frame {
		if readErr != nil {
			return readErr
		}
		return wr.decodeFrame()
	}
	if readErr == nil && wr.decodeStrict() {
		return nil
	}
	return json.NewDecoder(&replay{data: wr.body.Bytes(), err: readErr}).Decode(&wr.ClassifyRequest)
}

// replay serves bytes already read, then the error that ended them.
type replay struct {
	data []byte
	err  error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// decodeStrict runs parseStrict over wr.body into the spare pixel
// buffer; on decline the (possibly grown) buffer stays spare.
func (wr *WireRequest) decodeStrict() bool {
	px := wr.pixels[:0]
	if px == nil {
		px = make([]float64, 0, wr.lastLen)
	}
	req, px, ok := parseStrict(wr.body.Bytes(), px)
	if !ok {
		wr.pixels = px[:0]
		return false
	}
	wr.ClassifyRequest, wr.pixels, wr.lastLen = req, nil, len(px)
	return true
}

// Key bits for parseStrict's each-key-at-most-once rule.
const (
	keyModel = 1 << iota
	keyImage
	keyMaxSteps
	keyNoEarlyExit
)

// parseStrict is the single-pass decoder for the one shape clients
// actually send: a JSON object whose keys are exactly "model", "image",
// "maxSteps", "noEarlyExit" (exact case, each at most once, at least
// one), with an escape-free ASCII model string, a non-empty array of
// numbers in JSON's number grammar, a plain integer, and true/false.
// Pixels are converted with strconv.ParseFloat — the call encoding/json
// makes — so they are bit-identical. Anything else (unknown, duplicate
// or case-variant key, escape, non-ASCII, null, nesting, range error,
// trailing non-whitespace) is declined, never rejected: ok=false means
// "ask encoding/json". Pixels are appended to px, which is returned
// either way so its capacity is kept.
func parseStrict(b []byte, px []float64) (ClassifyRequest, []float64, bool) {
	var req ClassifyRequest
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, px, false
	}
	i = skipSpace(b, i+1)
	seen := 0
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return req, px, false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return req, px, false
		}
		i = skipSpace(b, i+1)
		bit := 0
		switch string(key) {
		case "model":
			bit = keyModel
			var s []byte
			if s, i, ok = scanString(b, i); ok {
				req.Model = string(s)
			}
		case "image":
			bit = keyImage
			px, i, ok = scanPixels(b, i, px)
			req.Image = px
		case "maxSteps":
			bit = keyMaxSteps
			req.MaxSteps, i, ok = scanInt(b, i)
		case "noEarlyExit":
			bit = keyNoEarlyExit
			switch {
			case bytes.HasPrefix(b[i:], []byte("true")):
				req.NoEarlyExit, i = true, i+4
			case bytes.HasPrefix(b[i:], []byte("false")):
				req.NoEarlyExit, i = false, i+5
			default:
				ok = false
			}
		default:
			ok = false
		}
		if !ok || seen&bit != 0 {
			return req, px, false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i >= len(b) {
			return req, px, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return req, px, false
		}
		i = skipSpace(b, i+1)
	}
	return req, px, skipSpace(b, i+1) == len(b)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads a "…" string of printable ASCII with no escapes at
// b[i], returning its contents and the index past the closing quote.
func scanString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, i, false
		}
	}
	return nil, i, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanDigits skips a run of digits, reporting whether there was one.
func scanDigits(b []byte, i int) (int, bool) {
	start := i
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i, i > start
}

// scanIntPart skips JSON's integer part -?(0|[1-9][0-9]*) at b[i].
func scanIntPart(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		return i + 1, true
	}
	return scanDigits(b, i)
}

// scanNumber skips one number in JSON's grammar at b[i]. The caller
// checks the byte after it, which is what rejects "01" and "1.5.2".
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

// scanInt reads a plain JSON integer of at most 18 digits (so it cannot
// overflow an int64); fractions and exponents are left to encoding/json,
// which rejects them for an int field.
func scanInt(b []byte, i int) (v, end int, ok bool) {
	end, ok = scanIntPart(b, i)
	if !ok || end-i > 18 {
		return 0, i, false
	}
	n, err := strconv.ParseInt(unsafe.String(&b[i], end-i), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, i, false
	}
	return int(n), end, true
}

// scanPixels reads a non-empty [n, n, …] array at b[i], appending to px.
func scanPixels(b []byte, i int, px []float64) (_ []float64, end int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return px, i, false
	}
	for {
		i = skipSpace(b, i+1)
		j, ok := scanNumber(b, i)
		if !ok {
			return px, i, false
		}
		// The string aliases the body only for the duration of the call:
		// ParseFloat keeps no reference to its argument (its errors clone
		// it), and nothing writes the body meanwhile.
		f, err := strconv.ParseFloat(unsafe.String(&b[i], j-i), 64)
		if err != nil {
			return px, i, false
		}
		px = append(px, f)
		i = skipSpace(b, j)
		if i >= len(b) {
			return px, i, false
		}
		if b[i] == ']' {
			return px, i + 1, true
		}
		if b[i] != ',' {
			return px, i, false
		}
	}
}

// The binary frame, all integers little-endian:
//
//	0   4  magic "BSNF"
//	4   1  version (1)
//	5   1  flags (bit 0 = noEarlyExit; the rest must be zero)
//	6   4  M: model name length in bytes (u32)
//	10  4  N: pixel count (u32)
//	14  8  maxSteps (i64)
//	22  M  model name (UTF-8)
//	…  8N  pixels, IEEE-754 binary64 bit patterns
//
// float64, not float32, so the routing hash, the caches and the outcome
// are byte-identical to what the JSON hop produced.
const (
	frameMagic       = "BSNF"
	frameVersion     = 1
	frameNoEarlyExit = 1 << 0
	frameHeaderLen   = 22
)

// AppendFrame appends req as one binary frame to dst.
func AppendFrame(dst []byte, req ClassifyRequest) []byte {
	// What json.Marshal does to a string that is not UTF-8.
	model := strings.ToValidUTF8(req.Model, "\uFFFD")
	var flags byte
	if req.NoEarlyExit {
		flags = frameNoEarlyExit
	}
	dst = slices.Grow(dst, frameHeaderLen+len(model)+8*len(req.Image))
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(model)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Image)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(req.MaxSteps)))
	dst = append(dst, model...)
	for _, p := range req.Image {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	return dst
}

// decodeFrame decodes wr.body as one frame. It admits exactly what the
// JSON body can carry: the length must match the header to the byte
// (so nothing is allocated beyond what the body holds), flag bits must
// be known, the model name valid UTF-8 and every pixel finite.
func (wr *WireRequest) decodeFrame() error {
	b := wr.body.Bytes()
	if len(b) < frameHeaderLen {
		return fmt.Errorf("frame: %d bytes is shorter than the %d-byte header", len(b), frameHeaderLen)
	}
	if string(b[:4]) != frameMagic {
		return errors.New("frame: bad magic")
	}
	if b[4] != frameVersion {
		return fmt.Errorf("frame: unsupported version %d (want %d)", b[4], frameVersion)
	}
	flags := b[5]
	if flags&^frameNoEarlyExit != 0 {
		return fmt.Errorf("frame: unknown flag bits %#02x", flags&^frameNoEarlyExit)
	}
	m := uint64(binary.LittleEndian.Uint32(b[6:]))
	n := uint64(binary.LittleEndian.Uint32(b[10:]))
	if want := frameHeaderLen + m + 8*n; uint64(len(b)) != want {
		return fmt.Errorf("frame: %d bytes, but the header (model %d bytes, %d pixels) implies %d", len(b), m, n, want)
	}
	maxSteps := int64(binary.LittleEndian.Uint64(b[14:]))
	if int64(int(maxSteps)) != maxSteps {
		return fmt.Errorf("frame: maxSteps %d overflows int", maxSteps)
	}
	model := b[frameHeaderLen : frameHeaderLen+m]
	if !utf8.Valid(model) {
		return errors.New("frame: model name is not valid UTF-8")
	}
	px := wr.pixels[:0]
	if uint64(cap(px)) < n {
		px = make([]float64, 0, n)
	}
	px = px[:n]
	data := b[frameHeaderLen+m:]
	for k := range px {
		px[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		if math.IsNaN(px[k]) || math.IsInf(px[k], 0) {
			wr.pixels = px[:0]
			return fmt.Errorf("frame: pixel %d is not finite", k)
		}
	}
	wr.pixels = nil
	wr.ClassifyRequest = ClassifyRequest{
		Model:       string(model),
		Image:       px,
		MaxSteps:    int(maxSteps),
		NoEarlyExit: flags&frameNoEarlyExit != 0,
	}
	return nil
}
