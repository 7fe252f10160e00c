package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"burstsnn/internal/serve"
)

// WorkerAddrPrefix is the stdout line a worker process prints once its
// listener is bound: "FLEET_WORKER_ADDR=<host:port>". The spawner scans
// for it to discover the ephemeral port, then health-checks the address.
const WorkerAddrPrefix = "FLEET_WORKER_ADDR="

// ProcWorker runs a shard as a child process (`snnserve -worker`) spoken
// to over its HTTP API. The process owns its replicas, caches, and
// queue; this side only translates the Worker interface onto the wire
// and maps transport failures to ErrWorkerDown so the supervisor evicts
// and respawns crashed processes.
type ProcWorker struct {
	cmd  *exec.Cmd // nil for a worker this side did not spawn (tests)
	base string    // http://host:port
	// transport is this worker's own connection pool: idle connections
	// are not shared with (or capped by) http.DefaultTransport, and Close
	// drops them with the child.
	transport *http.Transport
	client    *http.Client
	down      atomic.Bool
}

// procIdleConns is how many idle connections a ProcWorker keeps to its
// child: a full default admission queue (4×MaxBatch per P, 8 P) of
// concurrent callers reuses connections instead of redialling.
const procIdleConns = 256

// procWriteBuffer holds a whole request — headers plus the frame of the
// largest input served here (28×28, 6.3 kB) — so it leaves in one write.
// Through the transport's default 4 kB buffer a frame took two, and the
// child, woken by the first, read half a request and went back to sleep.
// A larger frame still goes out correctly, in more writes.
const procWriteBuffer = 8 << 10

// newProcWorker connects to an already-listening worker at addr.
func newProcWorker(cmd *exec.Cmd, addr string) *ProcWorker {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: procIdleConns,
		WriteBufferSize:     procWriteBuffer,
		// A loopback redial costs ≈100 µs and an idle connection ≈16 kB of
		// buffers on each side, so a burst's surplus connections go after
		// 10 s, not http.DefaultTransport's 90 s.
		IdleConnTimeout: 10 * time.Second,
	}
	return &ProcWorker{
		cmd:       cmd,
		base:      "http://" + addr,
		transport: tr,
		client:    &http.Client{Transport: tr, Timeout: 2 * time.Minute},
	}
}

// SpawnProcWorker starts bin with args, waits (up to timeout) for the
// WorkerAddrPrefix line on its stdout and a passing /healthz, and
// returns the connected worker. The child's stderr is inherited.
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
	for {
		if w.Healthy() {
			return w, nil
		}
		if time.Now().After(deadline) {
			_ = w.Close()
			return nil, fmt.Errorf("fleet: worker at %s not healthy within %v", addr, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Addr returns the worker's announced listen address (host:port).
func (w *ProcWorker) Addr() string { return strings.TrimPrefix(w.base, "http://") }

// Pid returns the child's process id (the selftest kills it directly).
func (w *ProcWorker) Pid() int { return w.cmd.Process.Pid }

func (w *ProcWorker) Classify(ctx context.Context, req serve.ClassifyRequest) (serve.ClassifyResult, error) {
	// The frame is not pooled: the transport may still be reading it
	// after Do returns.
	body := serve.AppendFrame(nil, req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return serve.ClassifyResult{}, err
	}
	hreq.Header.Set("Content-Type", serve.FrameContentType)
	resp, err := w.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return serve.ClassifyResult{}, ctx.Err()
		}
		w.down.Store(true)
		return serve.ClassifyResult{}, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var res serve.ClassifyResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return serve.ClassifyResult{}, fmt.Errorf("fleet: worker response: %w", err)
		}
		return res, nil
	case http.StatusTooManyRequests:
		return serve.ClassifyResult{}, fmt.Errorf("%w: shard shed (Retry-After %s)",
			serve.ErrOverloaded, resp.Header.Get("Retry-After"))
	case http.StatusServiceUnavailable:
		w.down.Store(true)
		return serve.ClassifyResult{}, fmt.Errorf("%w: worker returned 503", ErrWorkerDown)
	case http.StatusNotFound:
		// Keep the worker's unknown-model verdict across the wire, as
		// Unregister does, so the front answers 404 like one server.
		return serve.ClassifyResult{}, fmt.Errorf("fleet: worker returned %s: %s: %w",
			resp.Status, readErr(resp.Body), serve.ErrUnknownModel)
	default:
		return serve.ClassifyResult{}, fmt.Errorf("fleet: worker returned %s: %s",
			resp.Status, readErr(resp.Body))
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

func (w *ProcWorker) RetryAfter(model string) time.Duration {
	st, err := w.Stats()
	if err != nil {
		return time.Second
	}
	if ms, ok := st.Models[model]; ok && ms.RetryAfterSec > 1 {
		return time.Duration(ms.RetryAfterSec * float64(time.Second))
	}
	return time.Second
}

func (w *ProcWorker) Resize(model string, replicas int) (int, error) {
	body, _ := json.Marshal(map[string]any{"model": model, "replicas": replicas})
	resp, err := w.client.Post(w.base+"/v1/pool", "application/json", bytes.NewReader(body))
	if err != nil {
		w.down.Store(true)
		return 0, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fleet: pool resize: %s: %s", resp.Status, readErr(resp.Body))
	}
	var out struct {
		Replicas int `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Replicas, nil
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
	resp, err := w.client.Do(req)
	if err != nil {
		w.down.Store(true)
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

// Healthy probes /healthz with a short timeout; any failure (refused
// connection, slow accept, non-200) counts as unhealthy.
func (w *ProcWorker) Healthy() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	ok := resp.StatusCode == http.StatusOK
	if ok {
		w.down.Store(false)
	}
	return ok && !w.down.Load()
}

// Close terminates the child: SIGTERM for a graceful drain, SIGKILL
// after 10s. Idempotent-ish: a dead child just returns its wait status.
func (w *ProcWorker) Close() error {
	w.transport.CloseIdleConnections()
	if w.cmd == nil || w.cmd.Process == nil {
		return nil
	}
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		_ = w.cmd.Process.Kill()
		<-done
		return nil
	}
}

func (w *ProcWorker) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		w.down.Store(true)
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
