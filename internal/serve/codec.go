package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The request codec: a client's JSON body — to a server or to a fleet
// front — is read through ReadClassify; a front's binary frame to its
// worker process arrives on the classify stream (stream.go) and is
// decoded by decodeFrame. See internal/README.md "Request codec".

// maxRequestBytes caps a POST /v1/classify body and a stream frame.
const maxRequestBytes = 8 << 20

// Buffers past these capacities are dropped on Release instead of
// pooled, so one huge request cannot pin megabytes behind the pool.
const (
	maxPooledBody   = 256 << 10
	maxPooledPixels = 32 << 10
)

// WireRequest is one decoded POST /v1/classify body or stream frame plus
// the pooled buffers it was decoded into. On the strict-JSON and frame
// paths Image aliases a pooled slice, which is why Release must be told
// whether the image ever left the handler.
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

// ReadClassify reads and decodes a POST /v1/classify JSON body. On
// failure it has already answered — 413 for a body over the 8 MiB cap,
// 400 for anything else — and returns nil. The caller must Release the
// result.
func ReadClassify(w http.ResponseWriter, r *http.Request) *WireRequest {
	wr := wirePool.Get().(*WireRequest)
	wr.body.Reset()
	_, readErr := wr.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := wr.decode(readErr); err != nil {
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

// decode fills the embedded ClassifyRequest from the JSON in wr.body.
// readErr is the error that ended the body read, if any. The strict
// decoder goes first; whatever it declines is handed, byte for byte and
// with the same terminal read error, to encoding/json, so the accepted
// set, the decoded values and the error texts are encoding/json's.
func (wr *WireRequest) decode(readErr error) error {
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
// Pixels are converted by scanFloat to exactly the bits that
// strconv.ParseFloat — the call encoding/json makes — returns. Anything
// else (unknown, duplicate or case-variant key, escape, non-ASCII, null,
// nesting, range error, trailing non-whitespace) is declined, never
// rejected: ok=false means "ask encoding/json". Pixels are appended to
// px, which is returned either way so its capacity is kept.
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

// scanFloat reads one number in JSON's grammar at b[start] and converts it
// to the float64 strconv.ParseFloat returns for the same bytes, bit for
// bit, in one pass. The caller checks the byte after it, which is what
// rejects "01" and "1.5.2". ok is false where the grammar fails or
// ParseFloat reports an error (out of range).
//
// While it checks the grammar it collects up to 19 significant digits
// into m and the decimal exponent into e10, so the number is m·10^e10,
// and then converts in whichever exact domain holds it:
//   - m = 0: ±0;
//   - m ≤ 2^53 and |e10| ≤ 22: float64(m) and 10^|e10| are both exact
//     float64s, so one IEEE multiply or divide rounds the exact value
//     once, correctly (Clinger's fast path);
//   - e10 in [-19, -1]: m / 10^-e10 by 128-bit integer division, rounded
//     to 53 bits half-to-even with the remainder as the sticky bit.
//
// Anything else — a 20th significant digit, an exponent literal of 10000
// or more, another exponent — goes to ParseFloat itself.
func scanFloat(b []byte, start int) (f float64, end int, ok bool) {
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	nd, e10 := 0, 0 // significant digits in m; decimal exponent
	slow := false   // the exact domains cannot hold it: leave it to ParseFloat
	// Integer part: "0", or a non-zero digit and more.
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		first := i
		if i, m, nd, slow = scanMantissa(b, i, m, nd); i == first {
			return 0, i, false
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		first := i
		for ; nd == 0 && i < len(b) && b[i] == '0'; i++ {
			e10-- // a leading zero of the fraction
		}
		had, long := nd, false
		if i, m, nd, long = scanMantissa(b, i, m, nd); i == first {
			return 0, i, false
		}
		e10, slow = e10-(nd-had), slow || long
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		first, x := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			// ParseFloat stops growing its exponent at 10000 but counts
			// the fraction's leading zeros exactly, so past that point
			// only its own arithmetic gives its answer.
			if x < 10000 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, i, false
		}
		slow = slow || x >= 10000
		if eneg {
			x = -x
		}
		e10 += x
	}
	if !slow {
		if f, ok = exactFloat(m, e10); ok {
			if neg {
				f = -f
			}
			return f, i, true
		}
	}
	// The string aliases the body only for the duration of the call:
	// ParseFloat keeps no reference to its argument (its errors clone it),
	// and nothing writes the body meanwhile.
	f, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
	return f, i, err == nil
}

// scanMantissa appends the run of digits at b[i] to the nd-digit m until
// m holds 19; long reports a digit past that, which is skipped. m's first
// digit must be non-zero (or m empty and b[i] not '0'), so nd counts
// significant digits.
func scanMantissa(b []byte, i int, m uint64, nd int) (end int, _ uint64, _ int, long bool) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		if nd < 19 {
			m, nd = m*10+uint64(b[i]-'0'), nd+1
		} else {
			long = true
		}
	}
	return i, m, nd, long
}

// exactFloat returns m·10^e10 correctly rounded, when it lies in one of
// scanFloat's three exact domains.
func exactFloat(m uint64, e10 int) (float64, bool) {
	switch {
	case m == 0:
		return 0, true
	case m <= 1<<53 && -22 <= e10 && e10 <= 22:
		if e10 < 0 {
			return float64(m) / float64pow10[-e10], true
		}
		return float64(m) * float64pow10[e10], true
	case -19 <= e10 && e10 < 0:
		return divPow10(m, -e10), true
	}
	return 0, false
}

// float64pow10[k] is 10^k, exact in float64 up to k = 22.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// uint64pow10[k] is 10^k; 10^19 is the last that fits.
var uint64pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// divPow10 returns m / 10^k correctly rounded, for 0 < m < 2^64 and
// 1 ≤ k ≤ 19. It shifts m left by s so that the 128-bit quotient by 10^k
// has 63 or 64 bits (with m·2^s below 2^(63+len(10^k)), the high word is
// below 10^k, as Div64 requires), keeps the top 53 and rounds half to
// even on the dropped bits plus the remainder. The result lies in
// [1e-19, 1e18), so it is always a normal float64.
func divPow10(m uint64, k int) float64 {
	d := uint64pow10[k]
	s := uint(63 + bits.Len64(d) - bits.Len64(m)) // 3 ≤ s ≤ 126
	var hi, lo uint64
	if s < 64 {
		hi, lo = m>>(64-s), m<<s
	} else {
		hi = m << (s - 64)
	}
	q, r := bits.Div64(hi, lo, d) // m/10^k = (q + r/d)·2^-s
	drop := uint(bits.Len64(q) - 53)
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant, drop = mant>>1, drop+1
		}
	}
	// mant·2^(drop-s), mant in [2^52, 2^53): the biased exponent is
	// 1023 + 52 + drop - s.
	return math.Float64frombits(uint64(1023+52+int(drop)-int(s))<<52 | mant&(1<<52-1))
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
		f, j, ok := scanFloat(b, i)
		if !ok {
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

// The binary frame a fleet front sends its worker on the classify
// stream, all integers little-endian:
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
// are byte-identical to a single server's for the same JSON body.
const (
	frameMagic       = "BSNF"
	frameVersion     = 1
	frameNoEarlyExit = 1 << 0
	frameHeaderLen   = 22
)

// appendFrame appends req as one binary frame to dst.
func appendFrame(dst []byte, req ClassifyRequest) []byte {
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

// decodeFrame decodes b as one frame. It admits exactly what the JSON
// body can carry: the length must match the header to the byte (so
// nothing is allocated beyond what b holds), flag bits must be known,
// the model name valid UTF-8 and every pixel finite.
func (wr *WireRequest) decodeFrame(b []byte) error {
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
