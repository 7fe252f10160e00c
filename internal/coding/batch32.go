package coding

import (
	"math/bits"

	"burstsnn/internal/kernels"
)

// BatchEvents32 is the column-form event stream of the batched lockstep
// simulator: one presentation of B images advances through the network
// together, and the spikes of one time step are grouped by neuron index
// into columns. Column c is
//
//	Index[c]                      — the neuron that spiked,
//	Lane[Start[c]:Start[c+1]]     — the batch lanes in which it spiked
//	                                (ascending slot order), and
//	Payload[Start[c]:Start[c+1]]  — the per-lane spike payloads.
//
// Columns are ordered by ascending neuron index, so projecting a single
// lane out of the stream yields exactly the (index-ordered) event list
// the sequential simulator emits for that lane's image: a downstream
// layer walking columns in order applies each lane's contributions in
// the same order the sequential path would, whichever other lanes are
// present.
//
// The point of the representation is amortization: a layer consuming a
// column resolves the scatter-table taps and loads the weight rows for
// Index[c] once, then applies them to every lane in the column.
//
// Payload rounding note: the spike payloads of every physical coding
// scheme (rate's unit payload, phase/TTFS's Π(t) = 2^-(1+t mod k), and
// burst's β^n·v_th with power-of-two defaults) are exactly representable
// in float32, so the stream itself typically loses nothing; the float32
// plane's tolerance contract comes from weight rounding and membrane
// accumulation, not from the events (see internal/README.md).
type BatchEvents32 struct {
	Index   []int32
	Start   []int32 // len(Index)+1; Start[0] == 0
	Lane    []int32
	Payload []float32
}

// Grow pre-sizes the buffers for up to cols columns and laneEvents total
// lane entries, so steady-state appends never allocate.
func (e *BatchEvents32) Grow(cols, laneEvents int) {
	if cap(e.Index) < cols {
		e.Index = make([]int32, 0, cols)
	}
	if cap(e.Start) < cols+1 {
		e.Start = make([]int32, 1, cols+1)
	}
	if cap(e.Lane) < laneEvents {
		e.Lane = make([]int32, 0, laneEvents)
	}
	if cap(e.Payload) < laneEvents {
		e.Payload = make([]float32, 0, laneEvents)
	}
	e.Reset()
}

// Reset empties the stream, keeping capacity.
func (e *BatchEvents32) Reset() {
	e.Index = e.Index[:0]
	if cap(e.Start) == 0 {
		e.Start = append(e.Start, 0)
	}
	e.Start = e.Start[:1]
	e.Start[0] = 0
	e.Lane = e.Lane[:0]
	e.Payload = e.Payload[:0]
}

// Cols returns the number of columns.
func (e *BatchEvents32) Cols() int { return len(e.Index) }

// LaneEvents returns the total number of (lane, payload) entries — the
// batch's spike count for the step.
func (e *BatchEvents32) LaneEvents() int { return len(e.Lane) }

// Column returns column c's neuron index, lanes, and payloads.
func (e *BatchEvents32) Column(c int) (index int32, lanes []int32, payloads []float32) {
	s, t := e.Start[c], e.Start[c+1]
	return e.Index[c], e.Lane[s:t], e.Payload[s:t]
}

// Add stages one lane entry for the column being built. Lanes must be
// staged in ascending slot order.
func (e *BatchEvents32) Add(lane int32, payload float32) {
	e.Lane = append(e.Lane, lane)
	e.Payload = append(e.Payload, payload)
}

// Commit closes the column under construction: if any lane entries were
// staged since the previous Commit, a column with the given neuron index
// is recorded. Indices must be committed in ascending order.
func (e *BatchEvents32) Commit(index int32) {
	if int(e.Start[len(e.Start)-1]) == len(e.Lane) {
		return
	}
	e.Index = append(e.Index, index)
	e.Start = append(e.Start, int32(len(e.Lane)))
}

// AddMask appends one whole column from a fired-lane bitmask with a
// uniform payload and commits it — the shape the fused FireRow kernels
// emit. m must be non-zero; bit s corresponds to lane slot s, so lanes
// come out in ascending slot order.
func (e *BatchEvents32) AddMask(index int32, m uint64, payload float32) {
	for ; m != 0; m &= m - 1 {
		e.Lane = append(e.Lane, int32(bits.TrailingZeros64(m)))
		e.Payload = append(e.Payload, payload)
	}
	e.Index = append(e.Index, index)
	e.Start = append(e.Start, int32(len(e.Lane)))
}

// AppendLane projects one lane's events out of the stream in column
// (neuron-index) order, widening payloads to float64 — the event list a
// float64 observer (test suites, probes) compares against.
func (e *BatchEvents32) AppendLane(lane int32, dst []Event) []Event {
	for c := range e.Index {
		s, t := e.Start[c], e.Start[c+1]
		for k := s; k < t; k++ {
			if e.Lane[k] == lane {
				dst = append(dst, Event{Index: int(e.Index[c]), Payload: float64(e.Payload[k])})
				break
			}
		}
	}
	return dst
}

// Step32 implementations for the batched encoders: the same pixels spike
// at the same steps as in the sequential encoders, payloads emitted as
// float32. Phase/TTFS round the per-step Π(t) once; the real encoder
// rounds each pixel value at emission.
//
// The phase and TTFS sweeps are row-at-a-time: their per-step payload is
// uniform across lanes, so a pixel row reduces to one lane bitmask
// (kernels.LaneMaskBit / LaneMaskEq) fed straight into AddMask, which emits the same ascending-lane column
// the scalar loop would. Rate (per-lane RNG draws) and real (per-pixel
// payloads) sweeps stay scalar.

func (e *batchRealEncoder) Step32(_ int, lanes int, out *BatchEvents32) {
	out.Reset()
	for i := 0; i < e.size; i++ {
		row := e.px[i*e.b : i*e.b+lanes]
		for s, v := range row {
			if v != 0 {
				out.Add(int32(s), float32(v))
			}
		}
		out.Commit(int32(i))
	}
}

func (e *batchRateEncoder) Step32(_ int, lanes int, out *BatchEvents32) {
	out.Reset()
	for i := 0; i < e.size; i++ {
		row := e.px[i*e.b : i*e.b+lanes]
		for s, v := range row {
			if v <= 0 {
				continue
			}
			if v > 1 {
				v = 1
			}
			if e.rngs[s].Bernoulli(v) {
				out.Add(int32(s), 1)
			}
		}
		out.Commit(int32(i))
	}
}

func (e *batchPhaseEncoder) Step32(t int, lanes int, out *BatchEvents32) {
	out.Reset()
	shift := uint(e.period - 1 - t%e.period)
	payload := float32(Pi(t, e.period))
	for i := 0; i < e.size; i++ {
		if m := kernels.LaneMaskBit(e.bits[i*e.b:i*e.b+lanes], shift); m != 0 {
			out.AddMask(int32(i), m, payload)
		}
	}
}

func (e *batchTTFSEncoder) Step32(t int, lanes int, out *BatchEvents32) {
	out.Reset()
	want := uint64(t%e.period) + 1
	payload := float32(Pi(t, e.period))
	for i := 0; i < e.size; i++ {
		if m := kernels.LaneMaskEq(e.phase[i*e.b:i*e.b+lanes], want); m != 0 {
			out.AddMask(int32(i), m, payload)
		}
	}
}
