package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testStream is the front's end of a classify stream.
type testStream struct {
	conn net.Conn
	br   *bufio.Reader
}

// openStream serves h on loopback and opens a classify stream to it.
func openStream(t *testing.T, h http.Handler) testStream {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	conn, br, err := DialStream(context.Background(), strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return testStream{conn, br}
}

// call writes one envelope and reads one reply; a stream that lost its
// place times out rather than hangs.
func (st testStream) call(t *testing.T, envelope []byte) StreamReply {
	t.Helper()
	_ = st.conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := st.conn.Write(envelope); err != nil {
		t.Fatal(err)
	}
	rep, _, err := ReadStreamReply(st.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// resultBits renders every field of res, floats as their bit patterns:
// two results render alike exactly when they match bit for bit.
func resultBits(res ClassifyResult) string {
	label, correct := "nil", "nil"
	if res.Label != nil {
		label = strconv.Itoa(*res.Label)
	}
	if res.Correct != nil {
		correct = strconv.FormatBool(*res.Correct)
	}
	res.Label, res.Correct = nil, nil
	return fmt.Sprintf("%+v margin=%#x latencyMs=%#x label=%s correct=%s",
		res, math.Float64bits(res.Margin), math.Float64bits(res.LatencyMs), label, correct)
}

// TestStreamNeedsUpgrade: GET /v1/stream without the Upgrade header is
// refused with 426 and the token to ask for, and DialStream reports a
// server that does not upgrade as an error.
func TestStreamNeedsUpgrade(t *testing.T) {
	rec := httptest.NewRecorder()
	NewStreamServer(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, StreamPath, nil))
	if rec.Code != http.StatusUpgradeRequired || rec.Header().Get("Upgrade") != streamProtocol {
		t.Errorf("plain GET: status %d, Upgrade %q", rec.Code, rec.Header().Get("Upgrade"))
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	if _, _, err := DialStream(context.Background(), strings.TrimPrefix(ts.URL, "http://")); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("dial to a server without the stream: %v", err)
	}
}

// FuzzStreamEnvelope: the worker's envelope reader never panics, never
// allocates more than the length prefix admits, accepts only canonical
// envelopes (re-encoding one reproduces its bytes), answers a bad frame
// without losing its place in the stream, and round-trips every request
// field bit for bit.
func FuzzStreamEnvelope(f *testing.F) {
	half := []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f} // 0.5
	nan := []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}
	f.Add(AppendStreamRequest(nil, 1, benchRequest()), uint64(1), "textures10", half, int64(0), false)
	f.Add(AppendStreamRequest(AppendStreamRequest(nil, 1<<63, ClassifyRequest{Model: "m", MaxSteps: -1}), 2,
		ClassifyRequest{Model: "é", Image: []float64{math.Inf(1)}, NoEarlyExit: true}),
		uint64(math.MaxUint64), "\xffm", nan, int64(math.MinInt64), true)
	f.Fuzz(func(t *testing.T, data []byte, id uint64, model string, pixels []byte, maxSteps int64, noEarlyExit bool) {
		// The bytes as a stream of envelopes.
		r := bufio.NewReader(bytes.NewReader(data))
		for rest := data; ; {
			wr := &WireRequest{}
			gotID, err := wr.readEnvelope(r)
			if len(rest) < envelopeHeaderLen {
				if err == nil {
					t.Fatalf("read an envelope from %d bytes", len(rest))
				}
				break
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if admitted := max(n-8, 0); wr.body.Cap() > admitted || admitted > maxRequestBytes && wr.body.Cap() != 0 {
				t.Fatalf("length prefix %d left a %d-byte buffer", n, wr.body.Cap())
			}
			var fe *frameError
			if err != nil && !errors.As(err, &fe) {
				break // the stream ends: cut short, or a length shorter than the id
			}
			if want := binary.LittleEndian.Uint64(rest[4:]); gotID != want {
				t.Fatalf("read id %d, the envelope says %d", gotID, want)
			}
			if err == nil {
				if again := AppendStreamRequest(nil, gotID, wr.ClassifyRequest); !bytes.Equal(again, rest[:4+n]) {
					t.Fatalf("accepted a non-canonical envelope: re-encodes to %x, was %x", again, rest[:4+n])
				}
			} else if fe.status != http.StatusBadRequest {
				t.Fatalf("%v answered %d", fe, fe.status)
			}
			rest = rest[4+n:]
		}

		// The fields, through encode → read, twice on one stream.
		req := ClassifyRequest{Model: model, MaxSteps: int(maxSteps), NoEarlyExit: noEarlyExit}
		finite := true
		for ; len(pixels) >= 8; pixels = pixels[8:] {
			p := math.Float64frombits(binary.LittleEndian.Uint64(pixels))
			finite = finite && !math.IsNaN(p) && !math.IsInf(p, 0)
			req.Image = append(req.Image, p)
		}
		r = bufio.NewReader(bytes.NewReader(AppendStreamRequest(AppendStreamRequest(nil, id, req), id+1, req)))
		want := req
		want.Model = strings.ToValidUTF8(model, "\uFFFD")
		for k := uint64(0); k < 2; k++ {
			wr := &WireRequest{}
			gotID, err := wr.readEnvelope(r)
			if gotID != id+k {
				t.Fatalf("envelope %d: id %d, want %d", k, gotID, id+k)
			}
			var fe *frameError
			switch {
			case !finite:
				if !errors.As(err, &fe) || fe.status != http.StatusBadRequest {
					t.Fatalf("a frame with a non-finite pixel read as %v", err)
				}
			case err != nil:
				t.Fatalf("round trip: %v", err)
			default:
				sameRequest(t, wr.ClassifyRequest, want)
			}
		}
		if _, err := (&WireRequest{}).readEnvelope(r); err != io.EOF {
			t.Fatalf("after the last envelope: %v, want EOF", err)
		}
	})
}

// FuzzStreamReply: the front's reply reader never panics, never
// allocates more than the length prefix admits, accepts only canonical
// replies, and round-trips every StreamReply and ClassifyResult field bit
// for bit.
func FuzzStreamReply(f *testing.F) {
	label := -1
	ok := StreamReply{ID: 7, Status: http.StatusOK, Result: ClassifyResult{
		Model: "digits", Prediction: 3, Label: &label, Steps: 41, MaxSteps: 96, EarlyExit: true, Margin: 0.1,
		InputSpikes: 100, HiddenSpikes: 200, Spikes: 300, LatencyMs: 0.25, Cached: true, RequestID: "1f",
	}}
	shed := StreamReply{ID: 8, Status: http.StatusTooManyRequests, RetryAfter: 3, Err: "serve: overloaded"}
	f.Add(append(appendReply(nil, &ok), appendReply(nil, &shed)...), uint64(7), uint16(200), uint32(0),
		uint8(resultEarlyExit|resultHasLabel), int64(3), int64(41), int64(96), int64(100), int64(200), int64(300), int64(-1),
		math.Float64bits(0.1), math.Float64bits(math.NaN()), "digits", "1f", "")
	f.Add(appendReply(nil, &shed), uint64(math.MaxUint64), uint16(429), uint32(math.MaxUint32), uint8(0xff),
		int64(math.MinInt64), int64(0), int64(0), int64(0), int64(0), int64(0), int64(math.MaxInt64),
		uint64(1<<63), uint64(math.MaxUint64), "", "", "serve: overloaded")
	f.Fuzz(func(t *testing.T, data []byte, id uint64, status uint16, retryAfter uint32, flags uint8,
		prediction, steps, maxSteps, inputSpikes, hiddenSpikes, spikes, label int64, margin, latencyMs uint64,
		model, requestID, errText string) {
		// The bytes as a stream of replies.
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for rest := data; ; {
			before := cap(buf)
			rep, grown, err := ReadStreamReply(r, buf)
			buf = grown
			if len(rest) < 4 {
				if err == nil {
					t.Fatalf("read a reply from %d bytes", len(rest))
				}
				break
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if cap(buf) > max(before, n) || n > maxReplyBytes && cap(buf) != before {
				t.Fatalf("length prefix %d grew a %d-byte buffer to %d", n, before, cap(buf))
			}
			if err != nil {
				break
			}
			if again := appendReply(nil, &rep); !bytes.Equal(again, rest[:4+n]) {
				t.Fatalf("accepted a non-canonical reply: re-encodes to %x, was %x", again, rest[:4+n])
			}
			rest = rest[4+n:]
		}

		// The fields, through encode → read.
		want := StreamReply{ID: id, Status: int(status), RetryAfter: int(retryAfter), Err: errText}
		if want.Status == http.StatusOK {
			want.Err = ""
			want.Result = ClassifyResult{
				Model: model, Prediction: int(prediction), Steps: int(steps), MaxSteps: int(maxSteps),
				EarlyExit: flags&resultEarlyExit != 0, Margin: math.Float64frombits(margin),
				InputSpikes: int(inputSpikes), HiddenSpikes: int(hiddenSpikes), Spikes: int(spikes),
				LatencyMs: math.Float64frombits(latencyMs), Cached: flags&resultCached != 0,
				Degraded: flags&resultDegraded != 0, RequestID: requestID,
			}
			if flags&resultHasLabel != 0 {
				l := int(label)
				want.Result.Label = &l
			}
			if flags&resultHasCorrect != 0 {
				c := flags&resultCorrect != 0
				want.Result.Correct = &c
			}
		}
		got, _, err := ReadStreamReply(bufio.NewReader(bytes.NewReader(appendReply(nil, &want))), nil)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.RetryAfter != want.RetryAfter || got.Err != want.Err ||
			resultBits(got.Result) != resultBits(want.Result) {
			t.Fatalf("round trip: %+v (%s), want %+v (%s)", got, resultBits(got.Result), want, resultBits(want.Result))
		}
	})
}
