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
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The classify stream is a fleet front's one connection to a worker
// process. The front opens it with GET /v1/stream as an HTTP Upgrade on
// the worker's ordinary listener; from then on the connection carries
// request envelopes one way and reply frames the other, matched by a
// request id the front picks, any number of them in flight at once. All
// integers are little-endian (internal/README.md "Workers").
//
// Request envelope, front → worker:
//
//	0   4  L: the bytes that follow (8 + the frame's length)
//	4   8  request id
//	12  …  one frame, as appendFrame writes it
//
// Reply frame, worker → front:
//
//	0   4  L: the bytes that follow
//	4   8  request id
//	12  2  status: what POST /v1/classify would have answered
//	14  4  Retry-After seconds (a 429's; otherwise zero)
//	18  …  on 200 the result (appendResult), otherwise the error text
const (
	// StreamPath is the endpoint a front upgrades to the classify stream.
	StreamPath = "/v1/stream"
	// streamProtocol is the stream's Upgrade token.
	streamProtocol = "burstsnn-frames/1"

	envelopeHeaderLen = 4 + 8
	replyHeaderLen    = 4 + 8 + 2 + 4
	// maxErrorText caps a reply's error text: an unknown model's error
	// quotes the name, which may be megabytes long.
	maxErrorText = 512
	// maxReplyBytes caps a reply's L. The longest legitimate reply is a
	// result naming a model as long as a request frame may carry.
	maxReplyBytes = maxRequestBytes + 1<<10
)

// The result of a 200 reply, in this order: flags (u8), prediction,
// steps, maxSteps, inputSpikes, hiddenSpikes, spikes, label (i64 each;
// label 0 unless set), margin and latencyMs (float64 bits, so exact),
// then the model name and the request id, each after its u32 length.
const (
	resultEarlyExit = 1 << iota
	resultCached
	resultDegraded
	resultHasLabel
	resultHasCorrect
	resultCorrect // *Correct; only with resultHasCorrect

	resultFlags    = 1<<iota - 1
	resultFixedLen = 1 + 9*8
)

// StreamReply is one reply frame.
type StreamReply struct {
	ID uint64
	// Status is what POST /v1/classify would have answered the request
	// with; RetryAfter is a 429's Retry-After in seconds.
	Status, RetryAfter int
	// Result is the answer on a 200, Err the error text otherwise.
	Result ClassifyResult
	Err    string
}

// AppendStreamRequest appends req to dst as one request envelope tagged id.
func AppendStreamRequest(dst []byte, id uint64, req ClassifyRequest) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // L, set below
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = appendFrame(dst, req)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// A frameError fails one request of a stream, not the stream: it is
// answered with status, as the POST body it stands for would be.
type frameError struct {
	status int
	err    error
}

func (e *frameError) Error() string { return "invalid request body: " + e.err.Error() }

// readEnvelope reads the next request envelope from r and decodes its
// frame into wr. A *frameError is that request's own failure, to be
// answered on the stream; any other error ends the stream. The length is
// checked before anything is allocated: a frame over maxRequestBytes is
// skipped unbuffered and answered 413, like an oversize POST body.
func (wr *WireRequest) readEnvelope(r *bufio.Reader) (id uint64, err error) {
	hdr, err := r.Peek(envelopeHeaderLen)
	if err != nil {
		return 0, err
	}
	n, id := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint64(hdr[4:])
	if n < 8 {
		return id, fmt.Errorf("stream: envelope length %d is shorter than its id", n)
	}
	_, _ = r.Discard(envelopeHeaderLen) // Peek holds them
	size := int(n - 8)
	if size > maxRequestBytes {
		if _, err := r.Discard(size); err != nil {
			return id, err
		}
		return id, &frameError{http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: maxRequestBytes}}
	}
	wr.body.Reset()
	b := wr.body.AvailableBuffer()
	if cap(b) < size {
		b = make([]byte, 0, size)
		wr.body = *bytes.NewBuffer(b) // so Release pools the larger buffer
	}
	b = b[:size]
	if _, err := io.ReadFull(r, b); err != nil {
		return id, err
	}
	if err := wr.decodeFrame(b); err != nil {
		return id, &frameError{http.StatusBadRequest, err}
	}
	return id, nil
}

// appendReply appends rep to dst as one reply frame.
func appendReply(dst []byte, rep *StreamReply) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // L, set below
	dst = binary.LittleEndian.AppendUint64(dst, rep.ID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rep.Status))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.RetryAfter))
	if rep.Status == http.StatusOK {
		dst = appendResult(dst, &rep.Result)
	} else {
		dst = append(dst, rep.Err...)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendResult(dst []byte, res *ClassifyResult) []byte {
	var flags byte
	for bit, set := range [...]bool{res.EarlyExit, res.Cached, res.Degraded, res.Label != nil, res.Correct != nil,
		res.Correct != nil && *res.Correct} {
		if set {
			flags |= 1 << bit
		}
	}
	label := 0
	if res.Label != nil {
		label = *res.Label
	}
	dst = append(dst, flags)
	for _, v := range [...]int{res.Prediction, res.Steps, res.MaxSteps, res.InputSpikes, res.HiddenSpikes, res.Spikes, label} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(res.Margin))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(res.LatencyMs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res.Model)))
	dst = append(dst, res.Model...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res.RequestID)))
	return append(dst, res.RequestID...)
}

// ReadStreamReply reads the next reply frame from r and decodes it. buf
// is scratch for the frame: it is returned, grown to at most the frame's
// length, for the next call, and the reply keeps no reference to it.
func ReadStreamReply(r *bufio.Reader, buf []byte) (StreamReply, []byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return StreamReply{}, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < replyHeaderLen-4 || n > maxReplyBytes {
		return StreamReply{}, buf, fmt.Errorf("stream: reply length %d outside [%d, %d]", n, replyHeaderLen-4, maxReplyBytes)
	}
	_, _ = r.Discard(4) // Peek holds them
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return StreamReply{}, buf, err
	}
	rep, err := decodeReply(buf)
	return rep, buf, err
}

// decodeReply decodes b, a reply frame after its length. It accepts only
// what appendReply writes: anything else is an error, never a guess.
func decodeReply(b []byte) (StreamReply, error) {
	if len(b) < replyHeaderLen-4 {
		return StreamReply{}, fmt.Errorf("stream: %d-byte reply is shorter than its header", len(b))
	}
	rep := StreamReply{
		ID:         binary.LittleEndian.Uint64(b),
		Status:     int(binary.LittleEndian.Uint16(b[8:])),
		RetryAfter: int(binary.LittleEndian.Uint32(b[10:])),
	}
	b = b[replyHeaderLen-4:]
	if rep.Status != http.StatusOK {
		rep.Err = string(b)
		return rep, nil
	}
	if len(b) < resultFixedLen {
		return rep, fmt.Errorf("stream: %d-byte result is shorter than its %d fixed bytes", len(b), resultFixedLen)
	}
	flags := b[0]
	var v [7]int
	for k := range v {
		v[k] = int(int64(binary.LittleEndian.Uint64(b[1+8*k:])))
	}
	switch {
	case flags&^resultFlags != 0:
		return rep, fmt.Errorf("stream: unknown result flag bits %#02x", flags&^resultFlags)
	case flags&resultHasCorrect == 0 && flags&resultCorrect != 0:
		return rep, errors.New("stream: result has a correct value but no correct field")
	case flags&resultHasLabel == 0 && v[6] != 0:
		return rep, errors.New("stream: result has a label value but no label field")
	}
	res := &rep.Result
	res.Prediction, res.Steps, res.MaxSteps = v[0], v[1], v[2]
	res.InputSpikes, res.HiddenSpikes, res.Spikes = v[3], v[4], v[5]
	res.Margin = math.Float64frombits(binary.LittleEndian.Uint64(b[57:]))
	res.LatencyMs = math.Float64frombits(binary.LittleEndian.Uint64(b[65:]))
	res.EarlyExit = flags&resultEarlyExit != 0
	res.Cached = flags&resultCached != 0
	res.Degraded = flags&resultDegraded != 0
	if flags&resultHasLabel != 0 {
		label := v[6]
		res.Label = &label
	}
	if flags&resultHasCorrect != 0 {
		correct := flags&resultCorrect != 0
		res.Correct = &correct
	}
	model, rest, ok := cutString(b[resultFixedLen:])
	id, rest, ok2 := cutString(rest)
	if !ok || !ok2 || len(rest) != 0 {
		return rep, errors.New("stream: result strings do not fill the frame")
	}
	res.Model, res.RequestID = model, id
	return rep, nil
}

// cutString reads a u32 length and that many bytes off the front of b.
func cutString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 4 {
		return "", b, false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if uint64(len(b)-4) < n {
		return "", b, false
	}
	return string(b[4 : 4+n]), b[4+n:], true
}

// DialStream opens a classify stream to the server listening on addr:
// one TCP connection, upgraded by GET /v1/stream. Replies must be read
// through the returned reader, which holds whatever the server sent
// after its 101.
func DialStream(ctx context.Context, addr string) (net.Conn, *bufio.Reader, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	br, err := upgrade(conn, addr)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

func upgrade(conn net.Conn, addr string) (*bufio.Reader, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+StreamPath, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProtocol)
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorText))
		return nil, fmt.Errorf("GET %s: %s: %s", StreamPath, resp.Status, bytes.TrimSpace(msg))
	}
	return br, nil
}

// StreamBackend answers a classify stream's requests. *Server is the one
// `snnserve -worker` serves; tests substitute a fake classifier.
type StreamBackend interface {
	Classify(ctx context.Context, req ClassifyRequest) (ClassifyResult, error)
	// ClassifyStatus is the status a failed Classify is answered with,
	// and a 429's Retry-After seconds (see Server.ClassifyStatus).
	ClassifyStatus(ctx context.Context, model string, err error) (status, retryAfter int)
}

// StreamServer serves GET /v1/stream: it upgrades the connection to the
// classify stream and answers every request envelope on it, each on its
// own goroutine and in whatever order they finish, until the front
// hangs up or Shutdown drains it.
type StreamServer struct {
	backend StreamBackend

	mu      sync.Mutex
	streams map[*stream]struct{}
	closed  bool
	live    sync.WaitGroup // one per stream in streams
}

// NewStreamServer returns a stream server answering with b.
func NewStreamServer(b StreamBackend) *StreamServer {
	return &StreamServer{backend: b, streams: map[*stream]struct{}{}}
}

func (ss *StreamServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) {
		w.Header().Set("Upgrade", streamProtocol)
		WriteError(w, http.StatusUpgradeRequired, fmt.Errorf("GET %s upgrades to %s", StreamPath, streamProtocol))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("this connection cannot be upgraded"))
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	// The listener's header deadlines do not apply to the stream. Cleared
	// before the stream is registered, so they cannot undo a drain.
	_ = conn.SetDeadline(time.Time{})
	st := &stream{conn: conn, backend: ss.backend}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		conn.Close()
		return
	}
	ss.streams[st] = struct{}{}
	ss.live.Add(1)
	ss.mu.Unlock()
	defer func() {
		ss.mu.Lock()
		delete(ss.streams, st)
		ss.mu.Unlock()
		ss.live.Done()
	}()
	st.serve(brw.Reader)
}

// Shutdown stops every stream reading: each answers the frames it has
// already read, then closes. It returns once all have closed, or closes
// the rest outright when ctx ends first. No stream opens after it.
func (ss *StreamServer) Shutdown(ctx context.Context) error {
	ss.mu.Lock()
	ss.closed = true
	for st := range ss.streams {
		st.drain()
	}
	ss.mu.Unlock()
	done := make(chan struct{})
	go func() {
		ss.live.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ss.mu.Lock()
		for st := range ss.streams {
			st.conn.Close()
		}
		ss.mu.Unlock()
		return ctx.Err()
	}
}

// A stream is one upgraded connection.
type stream struct {
	conn     net.Conn
	backend  StreamBackend
	draining atomic.Bool
	inflight sync.WaitGroup
	// wmu serialises replies: each leaves in one write of wbuf.
	wmu  sync.Mutex
	wbuf []byte
}

const upgradeReply = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + streamProtocol + "\r\n\r\n"

// serve answers the stream's envelopes until a read fails, then waits
// for the answers in flight and closes the connection.
func (st *stream) serve(br *bufio.Reader) {
	defer st.conn.Close()
	if _, err := io.WriteString(st.conn, upgradeReply); err != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		wr := wirePool.Get().(*WireRequest)
		id, err := wr.readEnvelope(br)
		if err != nil {
			wr.Release(true)
			var fe *frameError
			if !errors.As(err, &fe) {
				break
			}
			st.reply(&StreamReply{ID: id, Status: fe.status, Err: fe.Error()})
			continue
		}
		st.inflight.Add(1)
		go st.answer(ctx, id, wr)
	}
	if !st.draining.Load() {
		// The front hung up: nobody is left to read these answers.
		cancel()
	}
	st.inflight.Wait()
}

// drain makes the next read from the socket fail. Envelopes already in
// the read buffer are still answered.
func (st *stream) drain() {
	st.draining.Store(true)
	_ = st.conn.SetReadDeadline(time.Now())
}

func (st *stream) answer(ctx context.Context, id uint64, wr *WireRequest) {
	defer st.inflight.Done()
	req := wr.ClassifyRequest
	res, err := st.backend.Classify(ctx, req)
	wr.Release(err == nil && res.Cached)
	rep := StreamReply{ID: id, Status: http.StatusOK, Result: res}
	if err != nil {
		rep.Status, rep.RetryAfter = st.backend.ClassifyStatus(ctx, req.Model, err)
		if rep.Err = err.Error(); len(rep.Err) > maxErrorText {
			rep.Err = rep.Err[:maxErrorText]
		}
	}
	st.reply(&rep)
}

func (st *stream) reply(rep *StreamReply) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.wbuf = appendReply(st.wbuf[:0], rep)
	if _, err := st.conn.Write(st.wbuf); err != nil {
		// The front is gone; closing ends the read loop as well.
		st.conn.Close()
	}
}
