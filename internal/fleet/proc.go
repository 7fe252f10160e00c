package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"burstsnn/internal/serve"
)

// WorkerAddrPrefix is the stdout line a worker process prints once its
// listener is bound: "FLEET_WORKER_ADDR=<host:port>". The spawner scans
// for it to discover the ephemeral port, then health-checks the address.
const WorkerAddrPrefix = "FLEET_WORKER_ADDR="

// ProcWorker runs a shard as a child process (`snnserve -worker`). Every
// Classify travels on one classify stream to the child (serve.DialStream):
// request envelopes out, reply frames back, matched by id. Everything
// else — health, stats, models, unregister — is the child's HTTP
// API. The process owns its replicas, caches, and queue; this side only
// translates the Worker interface onto the wire and maps transport
// failures to ErrWorkerDown so the supervisor evicts and respawns crashed
// processes.
type ProcWorker struct {
	cmd  *exec.Cmd // nil for a worker this side did not spawn (tests)
	base string    // http://host:port
	// admin has a transport of its own, so Close can drop its idle
	// connections with the child.
	admin *http.Client

	conn net.Conn
	// wmu serialises request envelopes: each leaves in one write of wbuf.
	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan streamReply
	// broken is the stream's terminal error, once it has one: every
	// later Classify fails with it at once.
	broken     error
	readerDone chan struct{}
}

// streamReply is what a waiting Classify receives: its reply, or the
// error that broke the stream.
type streamReply struct {
	rep serve.StreamReply
	err error
}

// maxPooledFrame bounds the request buffer kept between calls.
const maxPooledFrame = 64 << 10

// newProcWorker prepares the worker at addr; openStream connects it.
func newProcWorker(cmd *exec.Cmd, addr string) *ProcWorker {
	return &ProcWorker{
		cmd:        cmd,
		base:       "http://" + addr,
		admin:      &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute},
		pending:    map[uint64]chan streamReply{},
		readerDone: make(chan struct{}),
	}
}

// openStream dials the worker's classify stream and starts its reader.
func (w *ProcWorker) openStream() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, br, err := serve.DialStream(ctx, w.Addr())
	if err != nil {
		return fmt.Errorf("fleet: classify stream: %w", err)
	}
	w.attach(conn, br)
	return nil
}

// attach makes conn the worker's classify stream; replies are read
// through br.
func (w *ProcWorker) attach(conn net.Conn, br *bufio.Reader) {
	w.conn = conn
	go w.readReplies(br)
}

// SpawnProcWorker starts bin with args, waits (up to timeout) for the
// WorkerAddrPrefix line on its stdout and a passing /healthz, opens the
// classify stream and returns the connected worker. The child's stderr
// is inherited.
func SpawnProcWorker(bin string, args []string, timeout time.Duration) (*ProcWorker, error) {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: start worker: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, WorkerAddrPrefix) {
				select {
				case addrCh <- strings.TrimPrefix(line, WorkerAddrPrefix):
				default:
				}
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("fleet: worker did not announce %s within %v", WorkerAddrPrefix, timeout)
	}
	w := newProcWorker(cmd, addr)
	deadline := time.Now().Add(timeout)
	for !w.probe() {
		if time.Now().After(deadline) {
			_ = w.Close()
			return nil, fmt.Errorf("fleet: worker at %s not healthy within %v", addr, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := w.openStream(); err != nil {
		_ = w.Close()
		return nil, err
	}
	return w, nil
}

// Addr returns the worker's announced listen address (host:port).
func (w *ProcWorker) Addr() string { return strings.TrimPrefix(w.base, "http://") }

// Pid returns the child's process id (the selftest kills it directly).
func (w *ProcWorker) Pid() int { return w.cmd.Process.Pid }

// Classify sends req on the classify stream and waits for its reply. A
// cancelled ctx abandons the wait; the late reply is dropped.
func (w *ProcWorker) Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	ch := make(chan streamReply, 1)
	w.mu.Lock()
	if err := w.broken; err != nil {
		w.mu.Unlock()
		return serve.ClassifyResult{}, err
	}
	w.nextID++
	id := w.nextID
	w.pending[id] = ch
	w.mu.Unlock()

	w.wmu.Lock()
	w.wbuf = serve.AppendStreamRequest(w.wbuf[:0], id, req)
	_, err := w.conn.Write(w.wbuf)
	if cap(w.wbuf) > maxPooledFrame {
		w.wbuf = nil
	}
	w.wmu.Unlock()
	if err != nil {
		w.fail(err) // answers ch, with every other pending call
	}

	select {
	case r := <-ch:
		if r.err != nil {
			return serve.ClassifyResult{}, r.err
		}
		return replyResult(r.rep)
	case <-ctx.Done():
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		return serve.ClassifyResult{}, ctx.Err()
	}
}

// replyResult maps a reply onto the Worker contract, so the routing plane
// cannot tell a process worker from an in-process one: 429 is a
// serve.ShedError with the frame's Retry-After, 503 ErrWorkerDown, 404
// serve.ErrUnknownModel and 504 context.DeadlineExceeded; any other
// status is a request-level failure the front answers 400.
func replyResult(rep serve.StreamReply) (serve.ClassifyResult, error) {
	var sentinel error
	switch rep.Status {
	case http.StatusOK:
		return rep.Result, nil
	case http.StatusTooManyRequests:
		return serve.ClassifyResult{}, &serve.ShedError{
			Reason: "shard shed: " + rep.Err, RetryAfter: time.Duration(rep.RetryAfter) * time.Second}
	case http.StatusServiceUnavailable:
		sentinel = ErrWorkerDown
	case http.StatusNotFound:
		sentinel = serve.ErrUnknownModel
	case http.StatusGatewayTimeout:
		sentinel = context.DeadlineExceeded
	default:
		return serve.ClassifyResult{}, fmt.Errorf("fleet: worker returned %d %s: %s",
			rep.Status, http.StatusText(rep.Status), rep.Err)
	}
	return serve.ClassifyResult{}, fmt.Errorf("fleet: worker returned %d %s: %s: %w",
		rep.Status, http.StatusText(rep.Status), rep.Err, sentinel)
}

// readReplies hands each reply to the call waiting on its id, until the
// stream fails.
func (w *ProcWorker) readReplies(br *bufio.Reader) {
	defer close(w.readerDone)
	var buf []byte
	for {
		var rep serve.StreamReply
		var err error
		if rep, buf, err = serve.ReadStreamReply(br, buf); err != nil {
			w.fail(err)
			return
		}
		w.mu.Lock()
		ch := w.pending[rep.ID]
		delete(w.pending, rep.ID)
		w.mu.Unlock()
		if ch != nil { // nil: its caller gave up
			ch <- streamReply{rep: rep}
		}
	}
}

// fail breaks the stream for good: it closes the connection and fails
// every pending call with ErrWorkerDown. The supervisor replaces the
// worker; a stream is never redialled.
func (w *ProcWorker) fail(cause error) {
	w.mu.Lock()
	if w.broken == nil {
		w.broken = fmt.Errorf("%w: classify stream: %v", ErrWorkerDown, cause)
	}
	pending := w.pending
	w.pending = map[uint64]chan streamReply{}
	err := w.broken
	w.mu.Unlock()
	if w.conn != nil {
		w.conn.Close()
	}
	for _, ch := range pending {
		ch <- streamReply{err: err}
	}
}

func (w *ProcWorker) Stats() (serve.ShardStats, error) {
	var st serve.ShardStats
	if err := w.getJSON("/metrics/shard", &st); err != nil {
		return serve.ShardStats{}, err
	}
	return st, nil
}

func (w *ProcWorker) Models() ([]serve.Info, error) {
	var out struct {
		Models []serve.Info `json:"models"`
	}
	if err := w.getJSON("/v1/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

func (w *ProcWorker) Unregister(model string, evict bool) error {
	url := w.base + "/v1/models/" + model
	if evict {
		url += "?mode=evict"
	}
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.admin.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// Preserve the worker's unknown-model verdict across the wire so
		// the Front's status mapping matches the in-process path.
		return fmt.Errorf("fleet: unregister %s: %s: %w", model, readErr(resp.Body), serve.ErrUnknownModel)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: unregister %s: %s: %s", model, resp.Status, readErr(resp.Body))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// Healthy reports whether the classify stream is up and /healthz passes.
func (w *ProcWorker) Healthy() bool {
	w.mu.Lock()
	broken := w.broken != nil
	w.mu.Unlock()
	return !broken && w.probe()
}

// probe GETs /healthz with a short timeout; any failure (refused
// connection, slow accept, non-200) counts as unhealthy.
func (w *ProcWorker) probe() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := w.admin.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Close terminates the child: SIGTERM for a graceful drain — it answers
// every frame it has read, and those replies still reach their callers —
// then SIGKILL after 10s. Once the child has exited, the reader gets up
// to 5s to hand out the replies still unread. Close then closes the
// stream, which fails anything still pending and unblocks any write, and
// waits for the reader. Idempotent-ish: a dead child just returns its
// wait status.
func (w *ProcWorker) Close() error {
	if w.cmd != nil && w.cmd.Process != nil {
		_ = w.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- w.cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = w.cmd.Process.Kill()
			<-done
		}
		if w.conn != nil {
			// The child's exit ends the stream: the reader reaches EOF
			// once it has read every reply the child wrote.
			select {
			case <-w.readerDone:
			case <-time.After(5 * time.Second):
			}
		}
	}
	w.fail(errors.New("worker closed"))
	if w.conn != nil {
		w.wmu.Lock() // a write in progress has returned
		w.wmu.Unlock()
		<-w.readerDone
	}
	w.admin.CloseIdleConnections()
	return nil
}

func (w *ProcWorker) getJSON(path string, v any) error {
	resp, err := w.admin.Get(w.base + path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: GET %s: %s: %s", path, resp.Status, readErr(resp.Body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func readErr(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}
