package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"burstsnn/internal/snn"
)

// Replica is one checkout unit of a Pool: a weight-sharing sequential
// simulator plus, built lazily on first use, its batched lockstep variant
// (which shares the float32 copies of the same weights, and the scatter
// tables). A request — or a whole microbatch — holds the Replica
// exclusively, so neither simulator needs internal locking.
type Replica struct {
	// Net is the sequential simulator (single-image path).
	Net *snn.Network

	batch    *snn.BatchNetwork32
	batchErr error
}

// Batch returns the replica's lockstep simulator with at least b lanes,
// constructing — or widening — it on first use. The error is sticky: a
// network whose encoder cannot batch (e.g. a stream-stateful Poisson
// encoder) fails once and the batcher falls back to sequential execution
// without re-probing.
//
// f32 is vestigial: it selected between the float32 and float64 lockstep
// planes until the float64 one was removed, and stays only because the
// repository benchmark calls Batch(b, true). false is an error.
func (r *Replica) Batch(b int, f32 bool) (*snn.BatchNetwork32, error) {
	if !f32 {
		return nil, errors.New("serve: the float64 lockstep plane was removed; Batch takes f32 = true")
	}
	if r.batch != nil && r.batch.B() >= b {
		return r.batch, nil
	}
	if r.batchErr != nil {
		return nil, r.batchErr
	}
	bn, err := snn.NewBatchNetwork32(r.Net, b)
	if err != nil {
		r.batchErr = err
		return nil, err
	}
	r.batch = bn
	return bn, nil
}

// Pool is a resizable checkout pool of simulator replicas. The spiking
// simulator is stateful (Reset/Step mutate membrane potentials), so a
// request must hold a replica exclusively for its whole run; the pool
// bounds simulator memory to at most Max networks while letting Size
// requests (or microbatches) simulate concurrently.
//
// The prototype network stays out of the serving rotation as a pure
// clone template: every replica is a weight-sharing clone, so Resize can
// grow the pool while other replicas are mid-simulation without racing
// Clone against a live membrane update.
type Pool struct {
	proto *snn.Network
	ch    chan *Replica // capacity = max; holds idle replicas

	mu     sync.Mutex
	built  int // replicas in existence (idle + checked out)
	target int // desired replica count; surplus is discarded on Put
}

// NewPool builds a fixed-size pool of size weight-sharing clones
// (Max == Size, so Resize is a no-op beyond the initial count).
func NewPool(proto *snn.Network, size int) (*Pool, error) {
	return NewPoolMax(proto, size, size)
}

// NewPoolMax builds a pool with size replicas up front and headroom to
// grow to max via Resize. The autoscaler owns the headroom: it widens the
// pool when queue pressure rises and narrows it back when pressure
// drains, within [1, max].
func NewPoolMax(proto *snn.Network, size, max int) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("serve: pool size must be at least 1, got %d", size)
	}
	if max < size {
		return nil, fmt.Errorf("serve: pool max %d below size %d", max, size)
	}
	p := &Pool{proto: proto, ch: make(chan *Replica, max)}
	for i := 0; i < size; i++ {
		c, err := proto.Clone()
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		p.ch <- &Replica{Net: c}
	}
	p.built, p.target = size, size
	return p, nil
}

// Size returns the target replica count (the pool's current width; during
// a shrink, surplus checked-out replicas are still draining back).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// Max returns the replica-count ceiling Resize can grow to.
func (p *Pool) Max() int { return cap(p.ch) }

// InFlight reports how many replicas are checked out right now (a live
// gauge for /metrics; InFlight == Size means the next batch waits).
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built - len(p.ch)
}

// Resize sets the target replica count, clamped to [1, Max]. Growth is
// eager (clones are built here, on the caller — the autoscaler goroutine
// — never on the request path); shrinking discards idle replicas now and
// sheds checked-out surplus as it returns through Put. Returns the
// clamped target.
func (p *Pool) Resize(n int) (int, error) {
	if n < 1 {
		n = 1
	}
	if n > cap(p.ch) {
		n = cap(p.ch)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.target = n
	for p.built < n {
		c, err := p.proto.Clone()
		if err != nil {
			return p.target, fmt.Errorf("serve: replica %d: %w", p.built, err)
		}
		p.ch <- &Replica{Net: c}
		p.built++
	}
	for p.built > n {
		select {
		case <-p.ch:
			p.built--
		default:
			// The surplus is all checked out; Put discards it on return.
			return n, nil
		}
	}
	return n, nil
}

// Get checks out a replica, blocking until one is free or ctx is done.
func (p *Pool) Get(ctx context.Context) (*Replica, error) {
	select {
	case rep := <-p.ch:
		return rep, nil
	default:
	}
	select {
	case rep := <-p.ch:
		return rep, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Put returns a replica to the pool. It must only be called with replicas
// obtained from Get. When a shrink has left the pool over target, the
// returning replica is discarded instead of re-entering rotation.
func (p *Pool) Put(rep *Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built > p.target {
		p.built--
		return
	}
	select {
	case p.ch <- rep:
	default:
		panic("serve: pool overflow — Put without matching Get")
	}
}
