package snn

import (
	"fmt"
	"math/bits"

	"burstsnn/internal/coding"
	"burstsnn/internal/kernels"
)

// BatchNetwork32 is the lockstep batch simulator (overview in batch.go):
// float32 state over the internal/kernels block primitives.
//
// Numerics contract (see internal/README.md "The float32 compute
// plane"): weights and biases are rounded to float32 once at conversion
// (the layers' WT32/WScatter32/Bias32 copies); per-step scheme scalars
// (thresholds, Π(t), bias scale) are computed in float64 and rounded per
// step; all membrane/readout accumulation is float32. The plane does NOT
// promise bit-identity to the float64 simulators — it promises identical
// predictions, spike counts, and early-exit outcomes on the equivalence
// corpus, with readout potentials within accumulation tolerance, which
// the suites in batch32_test.go and serve pin. Per-lane trajectories are
// still exactly deterministic and independent of batch composition: a
// lane's accumulation order never depends on which other lanes are
// present, and every specialization computes the same rounded float32
// operations per lane.

// BatchLayer32 is one spiking stage of a batched network. Slots
// [0, lanes) are active; the returned stream is owned by the layer and
// reused across calls.
type BatchLayer32 interface {
	// Name identifies the layer kind.
	Name() string
	// NumNeurons returns the per-lane population size (0 for stateless
	// gates), matching the sequential layer.
	NumNeurons() int
	// Step consumes the batch's presynaptic columns of time t and returns
	// the layer's own columns.
	Step(t int, biasScale float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32
	// Reset clears the neuron state of every lane.
	Reset()
	// Retire copies slot src's state over slot dst (lane compaction).
	Retire(dst, src int)
}

// BatchableLayer32 is a Layer that can stamp out a float32 B-lane batched
// variant sharing its float32 weight copies. Every layer the converter
// builds implements it.
type BatchableLayer32 interface {
	Layer
	// NewBatch32 returns a float32 batched variant with b lanes.
	NewBatch32(b int) BatchLayer32
}

// batchPopulation32 is the B-striped integrate-and-fire state of one
// batched layer: the lane-major counterpart of population (neuron i's
// lane s lives at state[i*b+s], so a neuron's lanes are one contiguous
// stripe), with the same fused bias→leak→burst→threshold pass per
// (neuron, lane), its leak-free paths delegated to the fused
// kernels.FireRow* primitives. Per-lane state is disjoint, so a lane's
// trajectory never depends on which other lanes are present. The
// previous-step fired flags are stored as full mask words (zero /
// all-ones) — the blend representation the packed burst kernel consumes.
//
// A layer may install a storage permutation (perm) mapping neuron order
// to cell order — BatchConv32 stores its population base-major so that
// one scatter tap's destinations are a single contiguous OutC×B block.
// The firing pass then sweeps the state arrays in storage order
// (contiguous) recording each cell's fired lanes in mask, and a
// neuron-order emission pass gathers only the spiking cells, so the
// emitted columns stay in ascending neuron order regardless of layout.
type batchPopulation32 struct {
	cfg   coding.Config
	b     int
	vmem  []float32
	g     []float32
	fired []uint32

	perm     []int32   // neuron -> storage cell; nil = identity
	biasPerm []float32 // bias in storage order (nil when perm is nil or bias-free)
	mask     []uint64  // per cell: fired-lane bits (fused fire rows / masked emission)
	occ      []uint64  // row-occupancy summary: bit c&63 of occ[c>>6] = (mask[c] != 0)
	pay      []float32 // per (cell, lane): staged payloads (burst schemes)
}

func newBatchPopulation32(n, b int, cfg coding.Config) *batchPopulation32 {
	p := &batchPopulation32{
		cfg:   cfg,
		b:     b,
		vmem:  make([]float32, n*b),
		g:     make([]float32, n*b),
		fired: make([]uint32, n*b),
		mask:  make([]uint64, n),
		occ:   make([]uint64, (n+63)/64),
	}
	if cfg.UsesBurstState() {
		p.pay = make([]float32, n*b)
	}
	p.resetState()
	return p
}

func (p *batchPopulation32) setPerm(perm []int32, bias32 []float32) {
	n := len(p.vmem) / p.b
	p.perm = perm
	if bias32 != nil {
		p.biasPerm = make([]float32, n)
		for i, cell := range perm {
			p.biasPerm[cell] = bias32[i]
		}
	}
}

func (p *batchPopulation32) resetState() {
	for i := range p.vmem {
		p.vmem[i] = 0
		p.g[i] = 1
		p.fired[i] = 0
	}
}

func (p *batchPopulation32) retire(dst, src int) {
	for base := 0; base < len(p.vmem); base += p.b {
		p.vmem[base+dst] = p.vmem[base+src]
		p.g[base+dst] = p.g[base+src]
		p.fired[base+dst] = p.fired[base+src]
	}
}

// fire runs the threshold test for every (neuron, active lane) pair at
// time t. The leak-free non-burst sweeps are the kernels' fused
// compare+subtract+bitmask rows and the leak-free burst sweep is
// kernels.FireRowsBurst; the leaky paths are scalar float32 loops.
func (p *batchPopulation32) fire(t, lanes int, bias []float32, biasScale float64, out *coding.BatchEvents32) {
	out.Reset()
	if p.perm == nil {
		p.fireDirect(t, lanes, bias, biasScale, out)
		return
	}
	p.fireMasked(t, lanes, biasScale, out)
}

func (p *batchPopulation32) fireDirect(t, lanes int, bias []float32, biasScale float64, out *coding.BatchEvents32) {
	n := len(p.vmem) / p.b
	useBurst := p.cfg.UsesBurstState()
	leak := p.cfg.Leak
	b := p.b
	bsc := float32(biasScale)
	if !useBurst && leak == 0 {
		// Pure-IF, scheme-constant threshold: one fused kernel row per
		// neuron, columns emitted straight from the lane bitmask.
		th := float32(p.cfg.Threshold(t, 1))
		for i := 0; i < n; i++ {
			vrow := p.vmem[i*b : i*b+lanes]
			var m uint64
			if bias == nil {
				m = kernels.FireRow(vrow, th)
			} else {
				m = kernels.FireRowBias(vrow, bias[i]*bsc, th)
			}
			if m != 0 {
				out.AddMask(int32(i), m, th)
			}
		}
		return
	}
	if useBurst && leak == 0 {
		// Pure-IF burst (the paper's configuration): one fused kernel call
		// runs the whole population's Eq. 8/9 rows over the full stripe
		// width (retired lanes' state is stepped but never read — their
		// fire bits are stripped by keepBits here), and payloads come out
		// of the staged pay rows at each mask's set bits.
		beta, vth := float32(p.cfg.Beta), float32(p.cfg.VTh)
		kernels.FireRowsBurst(p.vmem, p.g, p.pay, p.fired, p.mask, p.occ, n, b, bias, bsc, beta, vth)
		keepBits := laneMask(lanes)
		for w, ow := range p.occ {
			for ; ow != 0; ow &= ow - 1 {
				i := w<<6 + bits.TrailingZeros64(ow)
				m := p.mask[i] & keepBits
				if m == 0 {
					continue
				}
				payrow := p.pay[i*b:]
				for ; m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m)
					out.Add(int32(s), payrow[s])
				}
				out.Commit(int32(i))
			}
		}
		return
	}
	keep := float32(1 - leak)
	var thConst float32
	if !useBurst {
		thConst = float32(p.cfg.Threshold(t, 1))
	}
	beta, vth := float32(p.cfg.Beta), float32(p.cfg.VTh)
	for i := 0; i < n; i++ {
		base := i * b
		for s := 0; s < lanes; s++ {
			v := p.vmem[base+s]
			if bias != nil {
				v += bias[i] * bsc
			}
			if leak > 0 {
				v *= keep
			}
			th := thConst
			if useBurst {
				g := float32(1)
				if p.fired[base+s] != 0 {
					g = beta * p.g[base+s]
				}
				p.g[base+s] = g
				th = g * vth
			}
			if v >= th {
				v -= th
				p.fired[base+s] = ^uint32(0)
				out.Add(int32(s), th)
			} else {
				p.fired[base+s] = 0
			}
			p.vmem[base+s] = v
		}
		out.Commit(int32(i))
	}
}

func (p *batchPopulation32) fireMasked(t, lanes int, biasScale float64, out *coding.BatchEvents32) {
	n := len(p.vmem) / p.b
	useBurst := p.cfg.UsesBurstState()
	leak := p.cfg.Leak
	b := p.b
	bias := p.biasPerm
	mask := p.mask
	bsc := float32(biasScale)
	switch {
	case !useBurst && leak == 0:
		th := float32(p.cfg.Threshold(t, 1))
		occ := p.occ
		for i := range occ {
			occ[i] = 0
		}
		for c := 0; c < n; c++ {
			vrow := p.vmem[c*b : c*b+lanes]
			var m uint64
			if bias == nil {
				m = kernels.FireRow(vrow, th)
			} else {
				m = kernels.FireRowBias(vrow, bias[c]*bsc, th)
			}
			if m != 0 {
				mask[c] = m
				occ[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		// Constant threshold: every payload is th, no staging needed.
		for i, cell := range p.perm {
			if occ[cell>>6]>>(uint(cell)&63)&1 != 0 {
				out.AddMask(int32(i), mask[cell], th)
			}
		}
	case useBurst && leak == 0:
		beta, vth := float32(p.cfg.Beta), float32(p.cfg.VTh)
		kernels.FireRowsBurst(p.vmem, p.g, p.pay, p.fired, mask, p.occ, n, b, bias, bsc, beta, vth)
		p.emitMasked(lanes, out)
	default:
		keep := float32(1 - leak)
		var thConst float32
		if !useBurst {
			thConst = float32(p.cfg.Threshold(t, 1))
		}
		beta, vth := float32(p.cfg.Beta), float32(p.cfg.VTh)
		occ := p.occ
		for i := range occ {
			occ[i] = 0
		}
		pay := p.pay
		for c := 0; c < n; c++ {
			base := c * b
			var m uint64
			for s := 0; s < lanes; s++ {
				v := p.vmem[base+s]
				if bias != nil {
					v += bias[c] * bsc
				}
				if leak > 0 {
					v *= keep
				}
				th := thConst
				if useBurst {
					g := float32(1)
					if p.fired[base+s] != 0 {
						g = beta * p.g[base+s]
					}
					p.g[base+s] = g
					th = g * vth
				}
				if v >= th {
					v -= th
					p.fired[base+s] = ^uint32(0)
					m |= 1 << uint(s)
					if pay != nil {
						pay[base+s] = th
					}
				} else {
					p.fired[base+s] = 0
				}
				p.vmem[base+s] = v
			}
			if m != 0 {
				mask[c] = m
				occ[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		if pay != nil {
			p.emitMasked(lanes, out)
		} else {
			for i, cell := range p.perm {
				if occ[cell>>6]>>(uint(cell)&63)&1 != 0 {
					out.AddMask(int32(i), mask[cell], thConst)
				}
			}
		}
	}
}

// emitMasked drains mask/pay into columns in ascending neuron order — the
// order every sequential layer emits in (SpikingMaxPool emits in
// ascending window order for exactly this reason) — so each lane's
// contributions reach the next layer in the sequential order (see
// coding.BatchEvents32). The emission order is a permutation of storage
// order, so the per-neuron mask read is a random access over the whole
// mask array; the occ summary (one bit per cell, L1-resident) answers
// "did this cell fire at all" first, and the mask word is only touched
// for cells that did. Retired lanes' bits (the fused burst kernel records
// full-stripe masks) are stripped by keepBits.
func (p *batchPopulation32) emitMasked(lanes int, out *coding.BatchEvents32) {
	b := p.b
	mask := p.mask
	occ := p.occ
	pay := p.pay
	keepBits := laneMask(lanes)
	for i, cell := range p.perm {
		if occ[cell>>6]>>(uint(cell)&63)&1 == 0 {
			continue
		}
		m := mask[cell] & keepBits
		if m == 0 {
			continue
		}
		base := int(cell) * b
		for ; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			out.Add(int32(s), pay[base+s])
		}
		out.Commit(int32(i))
	}
}

// laneMask returns the bitmask covering the first lanes bits.
func laneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(lanes) - 1
}

func uniformPayload32(p []float32) bool {
	p0 := p[0]
	for _, v := range p[1:] {
		if v != p0 {
			return false
		}
	}
	return true
}

// densify spreads a column's payloads into the lane-dense vector pv
// (payload at each spiking lane's slot, zero elsewhere) — the shape
// kernels.AxpyBlockVec consumes.
func densify(pv []float32, colLanes []int32, pays []float32) {
	for s := range pv {
		pv[s] = 0
	}
	for j, lane := range colLanes {
		pv[lane] = pays[j]
	}
}

// scatterRowColumn32 applies one float32 weight row to one event column
// of a lane-striped accumulator laid out dst[o*b+lane] (the dense and
// readout layers' layout). A full uniform column is a single AxpyBlock; any
// other multi-lane column is densified into the pv scratch (len ≥ lanes)
// and runs as one AxpyBlockVec, so even per-lane burst payloads scatter
// as packed stripes. A spiking lane receives the same rounded
// multiply-add whatever the column shape, so its trajectory never
// depends on its batchmates (absent lanes accumulate only exact ±0s —
// see AxpyBlockVec).
func scatterRowColumn32(dst, row []float32, b, lanes int, colLanes []int32, pays, pv []float32) {
	switch {
	case len(colLanes) == 1:
		kernels.AxpyLane(dst, row, pays[0], b, int(colLanes[0]))
	case len(colLanes) == lanes && uniformPayload32(pays):
		kernels.AxpyBlock(dst, row, pays[0], b, lanes)
	default:
		densify(pv[:lanes], colLanes, pays)
		kernels.AxpyBlockVec(dst, row, pv, b, lanes)
	}
}

// BatchDense32 is the float32 B-lane variant of SpikingDense, sharing its
// WT32 copy.
type BatchDense32 struct {
	src *SpikingDense
	pop *batchPopulation32
	pv  []float32 // densified-column scratch
	out coding.BatchEvents32
}

// NewBatch32 implements BatchableLayer32.
func (l *SpikingDense) NewBatch32(b int) BatchLayer32 {
	d := &BatchDense32{src: l, pop: newBatchPopulation32(l.Out, b, l.pop.cfg), pv: make([]float32, b)}
	d.out.Grow(l.Out, l.Out*b)
	return d
}

// Name implements BatchLayer32.
func (l *BatchDense32) Name() string { return "sdense" }

// NumNeurons implements BatchLayer32.
func (l *BatchDense32) NumNeurons() int { return l.src.Out }

// Reset implements BatchLayer32.
func (l *BatchDense32) Reset() { l.pop.resetState() }

// Retire implements BatchLayer32.
func (l *BatchDense32) Retire(dst, src int) { l.pop.retire(dst, src) }

// Step implements BatchLayer32.
func (l *BatchDense32) Step(t int, biasScale float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32 {
	vmem := l.pop.vmem
	b := l.pop.b
	outN := l.src.Out
	for c := range in.Index {
		s, e := in.Start[c], in.Start[c+1]
		row := l.src.WT32[int(in.Index[c])*outN : int(in.Index[c]+1)*outN]
		scatterRowColumn32(vmem, row, b, lanes, in.Lane[s:e], in.Payload[s:e], l.pv)
	}
	l.pop.fire(t, lanes, l.src.Bias32, biasScale, &l.out)
	return &l.out
}

// BatchConv32 is the float32 B-lane variant of SpikingConv, sharing its
// scatter table and WScatter32 kernel copy.
//
// Unlike the sequential layer (CHW membrane order, so one tap's OutC
// destinations are OutH·OutW apart), the batched population is stored
// base-major: neuron (oc, base) lives at cell base·OutC+oc. One scatter
// tap's destinations are then a single contiguous OutC×B float32 block
// that zips with the contiguous weight row, fed straight to the kernels.
// The population's perm table maps neuron order back onto this layout
// for the firing pass, so emitted columns remain in ascending (CHW)
// neuron order.
type BatchConv32 struct {
	src *SpikingConv
	pop *batchPopulation32
	pv  []float32 // densified-column scratch
	out coding.BatchEvents32
}

// NewBatch32 implements BatchableLayer32.
func (l *SpikingConv) NewBatch32(b int) BatchLayer32 {
	n := len(l.pop.vmem)
	c := &BatchConv32{src: l, pop: newBatchPopulation32(n, b, l.pop.cfg), pv: make([]float32, b)}
	outC, outHW := l.Geom.OutC, l.outHW
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i%outHW*outC + i/outHW)
	}
	c.pop.setPerm(perm, l.bias32)
	c.out.Grow(n, n*b)
	return c
}

// Name implements BatchLayer32.
func (l *BatchConv32) Name() string { return "sconv" }

// NumNeurons implements BatchLayer32.
func (l *BatchConv32) NumNeurons() int { return len(l.src.pop.vmem) }

// Reset implements BatchLayer32.
func (l *BatchConv32) Reset() { l.pop.resetState() }

// Retire implements BatchLayer32.
func (l *BatchConv32) Retire(dst, src int) { l.pop.retire(dst, src) }

// Step implements BatchLayer32: per column the scatter-table walk
// happens once, inside the kernel layer. A multi-lane column (uniform or
// not) is densified into the full-width pv scratch — zeros at absent and
// retired lanes, whose ±0 accumulation is exact — and the whole tap list
// runs as one fused kernels.ConvScatterVec call (the payload vector
// pinned in registers across every tap at the serving stripe width);
// conv taps are short, so the per-tap call overhead this removes is
// comparable to the taps' own arithmetic. A single-lane column takes the
// strided scalar walk.
func (l *BatchConv32) Step(t int, biasScale float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32 {
	vmem := l.pop.vmem
	b := l.pop.b
	outC := l.src.Geom.OutC
	outCb := outC * b
	for c := range in.Index {
		idx := int(in.Index[c])
		s, e := in.Start[c], in.Start[c+1]
		colLanes := in.Lane[s:e]
		pays := in.Payload[s:e]
		taps := l.src.taps[l.src.tapStart[idx]:l.src.tapStart[idx+1]]
		if len(colLanes) == 1 {
			p, lane := pays[0], int(colLanes[0])
			for _, tp := range taps {
				kernels.AxpyLane(vmem[int(tp.Base)*outCb:int(tp.Base+1)*outCb],
					l.src.WScatter32[tp.WOff:int(tp.WOff)+outC], p, b, lane)
			}
			continue
		}
		densify(l.pv, colLanes, pays)
		kernels.ConvScatterVec(vmem, l.src.WScatter32, taps, outC, b, l.pv)
	}
	l.pop.fire(t, lanes, l.src.bias32, biasScale, &l.out)
	return &l.out
}

// BatchAvgPool32 is the float32 B-lane variant of SpikingAvgPool.
type BatchAvgPool32 struct {
	src *SpikingAvgPool
	pop *batchPopulation32
	inv float32
	out coding.BatchEvents32
}

// NewBatch32 implements BatchableLayer32.
func (l *SpikingAvgPool) NewBatch32(b int) BatchLayer32 {
	n := len(l.pop.vmem)
	p := &BatchAvgPool32{src: l, pop: newBatchPopulation32(n, b, l.pop.cfg), inv: float32(l.inv)}
	p.out.Grow(n, n*b)
	return p
}

// Name implements BatchLayer32.
func (l *BatchAvgPool32) Name() string { return "savgpool" }

// NumNeurons implements BatchLayer32.
func (l *BatchAvgPool32) NumNeurons() int { return len(l.src.pop.vmem) }

// Reset implements BatchLayer32.
func (l *BatchAvgPool32) Reset() { l.pop.resetState() }

// Retire implements BatchLayer32.
func (l *BatchAvgPool32) Retire(dst, src int) { l.pop.retire(dst, src) }

// Step implements BatchLayer32.
func (l *BatchAvgPool32) Step(t int, _ float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32 {
	vmem := l.pop.vmem
	b := l.pop.b
	inv := l.inv
	for c := range in.Index {
		s, e := in.Start[c], in.Start[c+1]
		vb := int(l.src.outIdx[in.Index[c]]) * b
		for k := s; k < e; k++ {
			wp := in.Payload[k] * inv
			vmem[vb+int(in.Lane[k])] += wp
		}
	}
	l.pop.fire(t, lanes, nil, 0, &l.out)
	return &l.out
}

// BatchMaxPool32 is the float32 B-lane variant of the max-pooling gate:
// cumulative payloads and spike stamps are lane-striped, the window
// geometry tables are shared, and the winner rule runs per (window,
// lane).
type BatchMaxPool32 struct {
	src *SpikingMaxPool
	b   int

	cum     []float32 // cum[i*b+lane]
	lastPay []float32
	seen    []int
	stamp   int

	winStamp []int
	touched  []int32
	out      coding.BatchEvents32
}

// NewBatch32 implements BatchableLayer32.
func (l *SpikingMaxPool) NewBatch32(b int) BatchLayer32 {
	nIn := l.C * l.H * l.W
	nWin := len(l.winStart) - 1
	m := &BatchMaxPool32{
		src: l, b: b,
		cum:      make([]float32, nIn*b),
		lastPay:  make([]float32, nIn*b),
		seen:     make([]int, nIn*b),
		winStamp: make([]int, nWin),
		touched:  make([]int32, 0, nWin),
	}
	m.out.Grow(nWin, nWin*b)
	return m
}

// Name implements BatchLayer32.
func (l *BatchMaxPool32) Name() string { return "smaxpool" }

// NumNeurons implements BatchLayer32.
func (l *BatchMaxPool32) NumNeurons() int { return 0 }

// Reset implements BatchLayer32.
func (l *BatchMaxPool32) Reset() {
	for i := range l.cum {
		l.cum[i] = 0
	}
}

// Retire implements BatchLayer32.
func (l *BatchMaxPool32) Retire(dst, src int) {
	for base := 0; base < len(l.cum); base += l.b {
		l.cum[base+dst] = l.cum[base+src]
		l.lastPay[base+dst] = l.lastPay[base+src]
		l.seen[base+dst] = l.seen[base+src]
	}
}

// winnerLane applies the sequential winner rule within one lane: the
// lowest-indexed member at the lane's cumulative maximum that spiked this
// step, or -1 when every maximal member is silent.
func (l *BatchMaxPool32) winnerLane(members []int32, s int) int {
	b := l.b
	best := l.cum[int(members[0])*b+s]
	for _, idx := range members[1:] {
		if c := l.cum[int(idx)*b+s]; c > best {
			best = c
		}
	}
	for _, idx := range members {
		if l.cum[int(idx)*b+s] == best && l.seen[int(idx)*b+s] == l.stamp {
			return int(idx)
		}
	}
	return -1
}

// Step implements BatchLayer32: accumulate the batch's events, then emit
// each touched window's per-lane winners in ascending window order —
// matching the sequential gate's emission order lane by lane.
func (l *BatchMaxPool32) Step(t int, _ float64, lanes int, in *coding.BatchEvents32) *coding.BatchEvents32 {
	l.stamp++
	l.touched = l.touched[:0]
	b := l.b
	for c := range in.Index {
		idx := int(in.Index[c])
		s, e := in.Start[c], in.Start[c+1]
		base := idx * b
		for k := s; k < e; k++ {
			lane := int(in.Lane[k])
			l.cum[base+lane] += in.Payload[k]
			l.seen[base+lane] = l.stamp
			l.lastPay[base+lane] = in.Payload[k]
		}
		if w := l.src.winOf[idx]; l.winStamp[w] != l.stamp {
			l.winStamp[w] = l.stamp
			l.touched = insertSorted(l.touched, w)
		}
	}
	l.out.Reset()
	for _, w := range l.touched {
		members := l.src.winMembers[l.src.winStart[w]:l.src.winStart[w+1]]
		for s := 0; s < lanes; s++ {
			if win := l.winnerLane(members, s); win >= 0 {
				l.out.Add(int32(s), l.lastPay[win*b+s])
			}
		}
		l.out.Commit(w)
	}
	return &l.out
}

// BatchOutput32 is the float32 B-lane readout.
type BatchOutput32 struct {
	src  *OutputLayer
	b    int
	pot  []float32 // pot[o*b+lane]
	pv   []float32 // densified-column scratch
	amax []float32 // PredictedAll running-max scratch
	aidx []int32   // PredictedAll running-argmax scratch
}

// NewBatch32 returns the float32 batched readout.
func (l *OutputLayer) NewBatch32(b int) *BatchOutput32 {
	return &BatchOutput32{
		src: l, b: b,
		pot:  make([]float32, l.Out*b),
		pv:   make([]float32, b),
		amax: make([]float32, b),
		aidx: make([]int32, b),
	}
}

// Reset clears every lane's accumulators.
func (l *BatchOutput32) Reset() {
	for i := range l.pot {
		l.pot[i] = 0
	}
}

// Retire copies slot src's scores over slot dst.
func (l *BatchOutput32) Retire(dst, src int) {
	for base := 0; base < len(l.pot); base += l.b {
		l.pot[base+dst] = l.pot[base+src]
	}
}

// Step integrates the batch's columns plus the rate-matched bias current
// in float32 (events then bias, like the sequential readout).
func (l *BatchOutput32) Step(biasScale float64, lanes int, in *coding.BatchEvents32) {
	pot := l.pot
	b := l.b
	outN := l.src.Out
	for c := range in.Index {
		s, e := in.Start[c], in.Start[c+1]
		row := l.src.WT32[int(in.Index[c])*outN : int(in.Index[c]+1)*outN]
		scatterRowColumn32(pot, row, b, lanes, in.Lane[s:e], in.Payload[s:e], l.pv)
	}
	bsc := float32(biasScale)
	for o, bv := range l.src.Bias32 {
		kernels.ScaleAdd(pot[o*b:o*b+lanes], bv*bsc)
	}
}

// Classes returns the readout width.
func (l *BatchOutput32) Classes() int { return l.src.Out }

// Predicted returns slot s's current argmax with the first-wins tie rule.
func (l *BatchOutput32) Predicted(s int) int {
	best := 0
	bestV := l.pot[s]
	for o := 1; o < l.src.Out; o++ {
		if v := l.pot[o*l.b+s]; v > bestV {
			best, bestV = o, v
		}
	}
	return best
}

// PredictedAll fills dst[:lanes] with every active slot's argmax in one
// lane-major sweep: class row o is merged into a running per-lane
// maximum by kernels.SelectMaxRow (one packed compare+blend per 8
// lanes), so the whole batch's argmax costs Out contiguous row passes
// instead of lanes strided walks. Replacement is strictly-greater, so
// the first-wins tie rule matches Predicted exactly.
func (l *BatchOutput32) PredictedAll(lanes int, dst []int) []int {
	dst = dst[:lanes]
	best := l.amax[:lanes]
	idx := l.aidx[:lanes]
	copy(best, l.pot[:lanes])
	for s := range idx {
		idx[s] = 0
	}
	for o := 1; o < l.src.Out; o++ {
		kernels.SelectMaxRow(best, l.pot[o*l.b:o*l.b+lanes], idx, int32(o), lanes)
	}
	for s, v := range idx {
		dst[s] = int(v)
	}
	return dst
}

// PotentialsInto copies slot s's class scores into dst (len ≥ classes),
// widened to float64, and returns the filled prefix.
func (l *BatchOutput32) PotentialsInto(s int, dst []float64) []float64 {
	dst = dst[:l.src.Out]
	for o := range dst {
		dst[o] = float64(l.pot[o*l.b+s])
	}
	return dst
}

// BatchProbe32 observes the float32 batch columns a stage emitted at t.
type BatchProbe32 func(t int, events *coding.BatchEvents32)

// BatchNetwork32 is the float32 lockstep batch simulator built over an
// existing Network: float32 weight copies (shared with every clone),
// B-striped float32 state, kernel-backed inner loops.
type BatchNetwork32 struct {
	Encoder coding.BatchEncoder
	Layers  []BatchLayer32
	Output  *BatchOutput32

	b       int
	nActive int
	laneIDs []int

	encOut   coding.BatchEvents32
	inCount  []int
	hidCount []int
	probes   map[int]BatchProbe32
}

// NewBatchNetwork32 builds a float32 B-lane lockstep simulator from net,
// sharing its float32 weight copies and precomputed tables. It fails if
// the encoder or a layer does not support batching (all standard
// converter output does).
func NewBatchNetwork32(net *Network, b int) (*BatchNetwork32, error) {
	if b < 1 || b > MaxBatchLanes {
		return nil, fmt.Errorf("snn: batch size must be in [1,%d], got %d", MaxBatchLanes, b)
	}
	enc, ok := net.Encoder.(coding.BatchableEncoder)
	if !ok {
		return nil, fmt.Errorf("snn: encoder %T does not support batching", net.Encoder)
	}
	bn := &BatchNetwork32{
		Encoder:  enc.NewBatch(b),
		Layers:   make([]BatchLayer32, len(net.Layers)),
		Output:   net.Output.NewBatch32(b),
		b:        b,
		laneIDs:  make([]int, b),
		inCount:  make([]int, b),
		hidCount: make([]int, b),
	}
	for i, l := range net.Layers {
		bl, ok := l.(BatchableLayer32)
		if !ok {
			return nil, fmt.Errorf("snn: layer %d (%s) does not support float32 batching", i, l.Name())
		}
		bn.Layers[i] = bl.NewBatch32(b)
	}
	size := bn.Encoder.Size()
	bn.encOut.Grow(size, size*b)
	return bn, nil
}

// B returns the lane capacity.
func (bn *BatchNetwork32) B() int { return bn.b }

// NumActive returns the number of live lanes.
func (bn *BatchNetwork32) NumActive() int { return bn.nActive }

// LaneID returns the caller lane id occupying slot s (lane ids are the
// positions in the Reset images slice and survive compaction).
func (bn *BatchNetwork32) LaneID(s int) int { return bn.laneIDs[s] }

// CountsInputSpikes mirrors coding.InputEncoder.CountsAsSpikes.
func (bn *BatchNetwork32) CountsInputSpikes() bool { return bn.Encoder.CountsAsSpikes() }

// Classes returns the readout width.
func (bn *BatchNetwork32) Classes() int { return bn.Output.Classes() }

// Predicted returns slot s's current readout argmax.
func (bn *BatchNetwork32) Predicted(slot int) int { return bn.Output.Predicted(slot) }

// PredictedAll fills dst (len ≥ NumActive()) with every active slot's
// readout argmax in one lane-major sweep and returns the filled prefix;
// dst[s] == Predicted(s) for every slot. The batched form is what the
// early-exit engine polls every step.
func (bn *BatchNetwork32) PredictedAll(dst []int) []int {
	return bn.Output.PredictedAll(bn.nActive, dst)
}

// PotentialsInto copies slot s's class scores into dst (len ≥
// Classes()) and returns the filled prefix.
func (bn *BatchNetwork32) PotentialsInto(slot int, dst []float64) []float64 {
	return bn.Output.PotentialsInto(slot, dst)
}

// Kernel names the kernel dispatch tier the simulator runs on, for
// metrics and artifacts.
func (bn *BatchNetwork32) Kernel() string { return kernels.Kind() }

// AttachProbe registers a float32 batch-column observer for a layer
// index; -1 observes the encoder.
func (bn *BatchNetwork32) AttachProbe(layer int, p BatchProbe32) {
	if layer < -1 || layer >= len(bn.Layers) {
		panic(fmt.Sprintf("snn: batch probe index %d out of range", layer))
	}
	if bn.probes == nil {
		bn.probes = map[int]BatchProbe32{}
	}
	bn.probes[layer] = p
}

// Reset loads a new batch of images into lanes 0..len(images)-1 and
// clears all neuron state. len(images) must be in [1, B].
func (bn *BatchNetwork32) Reset(images [][]float64) {
	if len(images) == 0 || len(images) > bn.b {
		panic(fmt.Sprintf("snn: batch of %d images exceeds [1,%d]", len(images), bn.b))
	}
	bn.nActive = len(images)
	for s, img := range images {
		bn.Encoder.SetLane(s, img)
		bn.laneIDs[s] = s
	}
	for _, l := range bn.Layers {
		l.Reset()
	}
	bn.Output.Reset()
}

// Retire removes slot s from the batch by physical compaction: the last
// active slot's state is copied over it and the active count shrinks, so
// the scatter and fire loops always run over the dense slot prefix
// [0, nActive) and a batch never pays full-batch cost for its slowest
// image. The remaining lanes are unaffected — their state is disjoint
// and the slot move is a pure relabeling.
func (bn *BatchNetwork32) Retire(s int) {
	if s < 0 || s >= bn.nActive {
		panic(fmt.Sprintf("snn: retire slot %d out of active range [0,%d)", s, bn.nActive))
	}
	last := bn.nActive - 1
	if s != last {
		bn.Encoder.Retire(s, last)
		for _, l := range bn.Layers {
			l.Retire(s, last)
		}
		bn.Output.Retire(s, last)
		bn.laneIDs[s] = bn.laneIDs[last]
	}
	bn.nActive--
}

func countLanes32(counts []int, ev *coding.BatchEvents32) {
	for _, lane := range ev.Lane {
		counts[lane]++
	}
}

// Step advances every active lane by one time step.
func (bn *BatchNetwork32) Step(t int) BatchStepStats {
	lanes := bn.nActive
	bn.Encoder.Step32(t, lanes, &bn.encOut)
	if p := bn.probes[-1]; p != nil {
		p(t, &bn.encOut)
	}
	biasScale := bn.Encoder.BiasScale(t)
	for s := 0; s < lanes; s++ {
		bn.inCount[s] = 0
		bn.hidCount[s] = 0
	}
	countLanes32(bn.inCount, &bn.encOut)
	ev := &bn.encOut
	for li, l := range bn.Layers {
		ev = l.Step(t, biasScale, lanes, ev)
		if p := bn.probes[li]; p != nil {
			p(t, ev)
		}
		countLanes32(bn.hidCount, ev)
	}
	bn.Output.Step(biasScale, lanes, ev)
	return BatchStepStats{
		InputEvents:  bn.inCount[:lanes],
		HiddenSpikes: bn.hidCount[:lanes],
	}
}
