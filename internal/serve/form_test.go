package serve

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"
)

// formHalvings is how many fruitless waits take a full window to zero:
// the halvings it takes to reach MaxDelay/formWindowFloor.
var formHalvings = bits.Len(formWindowFloor - 1)

// TestFormWindow drives the forming-window rule without a clock: each
// case is a sequence of dispatcher events and the window expected after
// every one of them.
func TestFormWindow(t *testing.T) {
	const full = 1600 * time.Microsecond
	type event int
	const (
		fruitless event = iota
		joined
		nearMiss
	)
	cases := []struct {
		name   string
		max    time.Duration
		events []event
		want   []time.Duration // window after each event
	}{
		{
			// The full/16 rung itself is never a wait: the fourth fruitless
			// wait (of full/8) takes the window straight to zero.
			name:   "lone traffic reaches zero in four fruitless waits and stays",
			max:    full,
			events: []event{fruitless, fruitless, fruitless, fruitless, fruitless, fruitless},
			want:   []time.Duration{full / 2, full / 4, full / 8, 0, 0, 0},
		},
		{
			name:   "one joiner restores the full window",
			max:    full,
			events: []event{fruitless, fruitless, joined, fruitless},
			want:   []time.Duration{full / 2, full / 4, full, full / 2},
		},
		{
			name:   "a joiner restores it from zero",
			max:    full,
			events: []event{fruitless, fruitless, fruitless, fruitless, joined},
			want:   []time.Duration{full / 2, full / 4, full / 8, 0, full},
		},
		{
			name:   "a near miss restores it from zero",
			max:    full,
			events: []event{fruitless, fruitless, fruitless, fruitless, fruitless, nearMiss, fruitless},
			want:   []time.Duration{full / 2, full / 4, full / 8, 0, 0, full, full / 2},
		},
		{
			// A batch that fills reports a joiner (its wait was cut short)
			// or waits not at all; neither path can shrink the window.
			name:   "batches that fill never shrink it",
			max:    full,
			events: []event{joined, joined, joined},
			want:   []time.Duration{full, full, full},
		},
		{
			name:   "a window too small to halve has no floor to stand on",
			max:    time.Nanosecond,
			events: []event{fruitless, joined},
			want:   []time.Duration{0, time.Nanosecond},
		},
		{
			name:   "no max delay is drain-only whatever happens",
			max:    0,
			events: []event{joined, nearMiss, fruitless},
			want:   []time.Duration{0, 0, 0},
		},
		{
			name:   "a negative max delay is drain-only too",
			max:    -time.Millisecond,
			events: []event{nearMiss, joined},
			want:   []time.Duration{0, 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newFormWindow(c.max)
			if start := max(c.max, 0); w.next() != start {
				t.Fatalf("initial window = %v, want %v", w.next(), start)
			}
			for i, ev := range c.events {
				switch ev {
				case fruitless:
					w.waited(false)
				case joined:
					w.waited(true)
				case nearMiss:
					w.nearMiss()
				}
				if got := w.next(); got != c.want[i] {
					t.Fatalf("after event %d: window = %v, want %v", i, got, c.want[i])
				}
			}
		})
	}
}

// TestBatcherFormConverges is the forming contract for k < MaxBatch
// closed-loop callers: the dispatcher's yield gathers a round's k requests
// into one batch, and once waiting has stopped gathering anyone that
// batch does not wait at all. A round counts as converged when its only
// forming event is one skipped wait with the window at zero; a caller the
// scheduler delayed breaks the pattern (a near miss brings the window
// back), so the test asks for a run of converged rounds somewhere in a
// bounded number of them rather than from a fixed round on.
//
// It runs on one P, where "submitted together" is exact: the callers are
// runnable on the dispatcher's own P when it yields. Across several Ps
// the callers trail the dispatcher's second look by however far apart
// the Ps run them, a straggler joins during the timed wait instead, and
// that is — rightly — evidence to keep the window.
func TestBatcherFormConverges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			pool, image := testPool(t, 1)
			metrics := NewMetrics()
			const delay = 10 * time.Millisecond
			b := NewBatcher(pool, BatcherConfig{Metrics: metrics, MaxBatch: 8, MaxDelay: delay})
			defer b.Close()
			policy := ExitPolicy{MaxSteps: 8}
			images := make([][]float64, k)
			for i := range images {
				images[i] = append([]float64(nil), image...)
				images[i][0] = float64(i+1) / 8 // distinct images
			}
			const wantRun, maxRounds = 8, 2000
			run := 0
			for round := 0; round < maxRounds && run < wantRun; round++ {
				before := metrics.Snapshot().FormWaits
				var wg sync.WaitGroup
				for i := 0; i < k; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if _, err := b.Submit(context.Background(), images[i], policy); err != nil {
							t.Errorf("Submit: %v", err)
						}
					}(i)
				}
				wg.Wait()
				after := metrics.Snapshot().FormWaits
				before.Skipped++
				if after == before && b.FormWindow() == 0 {
					run++
				} else {
					run = 0
				}
			}
			if run < wantRun {
				t.Fatalf("no %d consecutive rounds of one full-%d batch at a zero window in %d rounds: %+v",
					wantRun, k, maxRounds, metrics.Snapshot().FormWaits)
			}
		})
	}
}

// formPolicy is the exit policy of the gated forming tests' requests.
var formPolicy = ExitPolicy{MaxSteps: 8}

// zeroWindowBatcher returns a batcher over a one-replica pool whose
// forming window lone requests (of the returned image) have already taken
// to zero, and the channel that arms its gate: a gate sent on arm holds
// the next batch on its replica, before it replies to anyone, until the
// gate is closed.
func zeroWindowBatcher(t *testing.T, cfg BatcherConfig) (*Batcher, chan<- chan struct{}, []float64) {
	t.Helper()
	pool, image := testPool(t, 1)
	arm := make(chan chan struct{}, 1)
	b := NewBatcher(pool, cfg)
	b.injectFault = func() error {
		select {
		case gate := <-arm:
			<-gate
		default:
		}
		return nil
	}
	for i := 0; b.FormWindow() > 0; i++ {
		if i > formHalvings {
			t.Fatalf("window still %v after %d lone requests", b.FormWindow(), i)
		}
		if _, err := b.Submit(context.Background(), image, formPolicy); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	return b, arm, image
}

// TestBatcherFormNearMiss: with the window shrunk to zero by lone
// traffic, a second caller that arrives while the first one's partial
// batch is still executing is a near miss and brings the whole window back.
func TestBatcherFormNearMiss(t *testing.T) {
	// Long enough to outlast the gap between the first caller's dispatch
	// and the second one's submit on a loaded machine, short enough to
	// halve to zero in well under a second.
	const delay = 200 * time.Millisecond
	b, arm, image := zeroWindowBatcher(t, BatcherConfig{MaxBatch: 8, MaxDelay: delay})
	defer b.Close()

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the deferred Close, which waits for the batch
	arm <- gate
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The second caller may be cut off by Close below.
			_, _ = b.Submit(context.Background(), image, formPolicy)
		}()
	}
	submit()
	// The hook taking the gate is the proof that this batch — not the
	// previous one, still returning its replica — is the one executing.
	waitFor(t, func() bool { return len(arm) == 0 })
	if got := b.FormWindow(); got != 0 {
		t.Fatalf("window = %v while the lone batch executes, want 0", got)
	}
	submit()
	waitFor(t, func() bool { return b.FormWindow() == delay })
	release()
	b.Close() // ends the second caller's restored wait
	wg.Wait()
}

// TestBatcherFormRecoversFromZero: a zero window is not a trap. Two
// callers that fall out of step re-open it on their first overlap (the
// second one's batch waits the whole MaxDelay), and once they are in step
// again — one two-lane batch per round, gathered by the yield — it takes
// formHalvings fruitless waits to give the window up again. One P, for the
// reason TestBatcherFormConverges gives; a round the scheduler disturbs
// anyway restarts the count from wherever it left the window.
func TestBatcherFormRecoversFromZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const delay = 200 * time.Millisecond // see TestBatcherFormNearMiss
	metrics := NewMetrics()
	b, arm, image := zeroWindowBatcher(t, BatcherConfig{Metrics: metrics, MaxBatch: 8, MaxDelay: delay})
	defer b.Close()
	other := append([]float64(nil), image...)
	other[0] = 0.5 // a distinct image

	// Out of step: the second caller arrives while the first one's lone
	// batch is held on its replica.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the deferred Close, which waits for the batch
	arm <- gate
	var wg sync.WaitGroup
	var secondForm time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Submit(context.Background(), image, formPolicy); err != nil {
			t.Errorf("Submit: %v", err)
		}
	}()
	waitFor(t, func() bool { return len(arm) == 0 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, st, _, err := b.SubmitTraced(context.Background(), other, formPolicy)
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		secondForm = st.Form
	}()
	waitFor(t, func() bool { return b.FormWindow() == delay })
	release()
	wg.Wait()
	if secondForm < delay {
		t.Errorf("the second caller's batch formed in %v, want the restored %v window waited out", secondForm, delay)
	}
	// The held batch skipped its wait; the second one's was fruitless.
	want := FormWaits{Fruitless: int64(formHalvings) + 1, Skipped: 1}
	if got := metrics.Snapshot().FormWaits; got != want {
		t.Fatalf("forming waits after the overlap = %+v, want %+v", got, want)
	}

	// In step again. fruitless counts the fruitless waits since the window
	// was last whole; the second caller's own wait was the first.
	const maxRounds = 2000
	fruitless := 1
	for round := 0; b.FormWindow() > 0; round++ {
		if round == maxRounds {
			t.Fatalf("window still %v after %d synchronized rounds: %+v", b.FormWindow(), round, metrics.Snapshot().FormWaits)
		}
		before := metrics.Snapshot().FormWaits
		for _, img := range [][]float64{image, other} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Submit(context.Background(), img, formPolicy); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}()
		}
		wg.Wait()
		before.Fruitless++
		if metrics.Snapshot().FormWaits == before {
			fruitless++
		} else if win := b.FormWindow(); win > 0 {
			// A straggler joined or was a near miss: count from the window
			// that left behind.
			fruitless = bits.Len(uint(delay/win)) - 1
		}
	}
	if fruitless != formHalvings {
		t.Errorf("window reached zero after %d fruitless waits in step, want %d", fruitless, formHalvings)
	}
}

// TestBatcherGracefulCloseSkipsWindow: a request still queued when
// CloseGraceful closes the queue executes without waiting out the forming
// window — nobody can join it any more. With an hour-long window the
// test hangs if the last partial batch waits for company.
func TestBatcherGracefulCloseSkipsWindow(t *testing.T) {
	pool, image := testPool(t, 1)
	gate := make(chan struct{})
	b := NewBatcher(pool, BatcherConfig{MaxBatch: 2, MaxDelay: time.Hour})
	b.injectFault = func() error { <-gate; return nil }
	policy := ExitPolicy{MaxSteps: 8}
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Submit(context.Background(), image, policy); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}()
		}
	}
	// One full batch holds the replica at the gate, a second full batch
	// holds the dispatcher waiting for the slot, a fifth request stays
	// queued behind them.
	submit(2)
	waitFor(t, func() bool { return pool.InFlight() == 1 })
	submit(3)
	waitFor(t, func() bool { return b.QueueDepth() == 1 })
	closed := make(chan struct{})
	go func() {
		b.CloseGraceful()
		close(closed)
	}()
	// Admission stops before the queue is closed; the queue closes right
	// after, while both batches are still held.
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	close(gate)
	<-closed
	wg.Wait()
}
