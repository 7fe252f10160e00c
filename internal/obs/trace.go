package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's recorded stage breakdown, JSON-shaped for
// GET /v1/trace. Durations are milliseconds (the unit the JSON /metrics
// snapshot already speaks).
type Trace struct {
	// ID echoes ClassifyResult.RequestID, so a slow response can be
	// looked up in the ring.
	ID    string    `json:"id"`
	Model string    `json:"model"`
	Start time.Time `json:"start"`
	// TotalMs is end-to-end wall clock; the stage spans below follow the
	// package taxonomy (queue includes form and checkout wait).
	TotalMs    float64 `json:"totalMs"`
	QueueMs    float64 `json:"queueMs"`
	FormMs     float64 `json:"formMs"`
	EncodeMs   float64 `json:"encodeMs"`
	SimulateMs float64 `json:"simulateMs"`
	ReadoutMs  float64 `json:"readoutMs"`
	// Steps is the exit step (the early-exit engine's latency metric).
	Steps      int  `json:"steps"`
	EarlyExit  bool `json:"earlyExit"`
	Prediction int  `json:"prediction"`
	// Cached marks a request answered by the cross-batch response cache:
	// it never queued, held a replica, or simulated (all stage spans but
	// the total are zero).
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a request served under the degraded-mode tightened
	// exit policy (queue pressure was high at admission).
	Degraded bool `json:"degraded,omitempty"`
	// Error is set for failed requests (stage spans may be partial).
	Error string `json:"error,omitempty"`
	// Slow marks a trace at or over the ring's slow threshold; slow
	// traces are also pinned in the slowest-retained set.
	Slow bool `json:"slow,omitempty"`

	seq uint64 // recency order, assigned by Ring.Add
}

// SetTimes fills the trace's stage spans from a StageTimes and the
// end-to-end total.
func (t *Trace) SetTimes(st StageTimes, total time.Duration) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	t.TotalMs = ms(total)
	t.QueueMs = ms(st.Queue)
	t.FormMs = ms(st.Form)
	t.EncodeMs = ms(st.Encode)
	t.SimulateMs = ms(st.Simulate)
	t.ReadoutMs = ms(st.Readout)
}

// ringStripes shards Add: requests land round-robin on independently
// locked stripes so concurrent adds almost never contend. Must be a power
// of two.
const ringStripes = 8

type ringStripe struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	_    [40]byte // cache-line pad between neighboring stripes
}

// Ring retains the most recent traces in a lock-striped ring plus a
// bounded slowest-retained set: a trace whose total meets the slow
// threshold is pinned until slowCap even slower traces displace it, so
// tail spikes survive ring turnover between scrapes.
type Ring struct {
	stripes  []ringStripe
	tick     atomic.Uint64
	seq      atomic.Uint64
	perCap   int
	slowThr  time.Duration
	slowCap  int
	slowMu   sync.Mutex
	slowBuf  []Trace
	slowDrop uint64 // slow traces displaced by slower ones (under slowMu)
}

// NewRing builds a ring retaining ~capacity recent traces (split across
// the stripes; minimum one per stripe), pinning up to slowCap traces at
// or over slowThreshold. slowThreshold <= 0 disables pinning.
func NewRing(capacity, slowCap int, slowThreshold time.Duration) *Ring {
	per := capacity / ringStripes
	if per < 1 {
		per = 1
	}
	if slowCap < 0 {
		slowCap = 0
	}
	return &Ring{
		stripes: make([]ringStripe, ringStripes),
		perCap:  per,
		slowThr: slowThreshold,
		slowCap: slowCap,
	}
}

// Capacity returns the recent-trace retention (stripes × per-stripe).
func (r *Ring) Capacity() int { return r.perCap * len(r.stripes) }

// SlowThreshold returns the pinning threshold (0 = disabled).
func (r *Ring) SlowThreshold() time.Duration { return r.slowThr }

// Add records one trace, overwriting the stripe's oldest entry when
// full, and pins it into the slow set when at or over the threshold.
func (r *Ring) Add(t Trace) {
	t.seq = r.seq.Add(1)
	if r.slowThr > 0 && time.Duration(t.TotalMs*float64(time.Millisecond)) >= r.slowThr {
		t.Slow = true
		r.pinSlow(t)
	}
	s := &r.stripes[r.tick.Add(1)&uint64(len(r.stripes)-1)]
	s.mu.Lock()
	if len(s.buf) < r.perCap {
		s.buf = append(s.buf, t)
	} else {
		s.buf[s.next] = t
		s.next = (s.next + 1) % r.perCap
	}
	s.mu.Unlock()
}

// pinSlow keeps the slowCap slowest over-threshold traces: below
// capacity it appends; at capacity the incoming trace replaces the
// current fastest pinned trace iff it is slower.
func (r *Ring) pinSlow(t Trace) {
	if r.slowCap == 0 {
		return
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if len(r.slowBuf) < r.slowCap {
		r.slowBuf = append(r.slowBuf, t)
		return
	}
	min := 0
	for i := 1; i < len(r.slowBuf); i++ {
		if r.slowBuf[i].TotalMs < r.slowBuf[min].TotalMs {
			min = i
		}
	}
	if t.TotalMs > r.slowBuf[min].TotalMs {
		r.slowBuf[min] = t
		r.slowDrop++
	}
}

// Recent returns up to n traces, newest first.
func (r *Ring) Recent(n int) []Trace {
	all := make([]Trace, 0, r.Capacity())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		all = append(all, s.buf...)
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Slow returns the pinned slow traces, slowest first.
func (r *Ring) Slow() []Trace {
	r.slowMu.Lock()
	out := append([]Trace(nil), r.slowBuf...)
	r.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}
