package kernels

// The float32 primitives' bodies: modestly unrolled scalar loops, the
// one implementation on every build and dispatch tier. The multiply is
// always materialized (`wp := w * p`) before the add so no build can
// contract it into an FMA and round differently.

func axpyBlock(dst, row []float32, p float32, b, lanes int) {
	off := 0
	for _, w := range row {
		wp := w * p
		stripe := dst[off : off+lanes]
		i := 0
		for ; i+4 <= len(stripe); i += 4 {
			stripe[i] += wp
			stripe[i+1] += wp
			stripe[i+2] += wp
			stripe[i+3] += wp
		}
		for ; i < len(stripe); i++ {
			stripe[i] += wp
		}
		off += b
	}
}

func axpyBlockVec(dst, row, pv []float32, b, lanes int) {
	pv = pv[:lanes]
	off := 0
	for _, w := range row {
		stripe := dst[off : off+lanes]
		for j, p := range pv {
			wp := w * p
			stripe[j] += wp
		}
		off += b
	}
}

func scaleAdd(dst []float32, x float32) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += x
		dst[i+1] += x
		dst[i+2] += x
		dst[i+3] += x
	}
	for ; i < len(dst); i++ {
		dst[i] += x
	}
}

func fireRow(v []float32, th float32) uint64 {
	var m uint64
	for s, x := range v {
		if x >= th {
			v[s] = x - th
			m |= 1 << uint(s)
		}
	}
	return m
}

func fireRowBurst(v, g, pay []float32, fired []uint32, bias, beta, vth float32) uint64 {
	var m uint64
	for s := range v {
		x := v[s] + bias
		gv := float32(1)
		if fired[s] != 0 {
			gv = beta * g[s]
		}
		g[s] = gv
		th := gv * vth
		pay[s] = th
		if x >= th {
			x -= th
			fired[s] = ^uint32(0)
			m |= 1 << uint(s)
		} else {
			fired[s] = 0
		}
		v[s] = x
	}
	return m
}

func fireRowBias(v []float32, bias, th float32) uint64 {
	var m uint64
	for s, x := range v {
		x += bias
		if x >= th {
			x -= th
			m |= 1 << uint(s)
		}
		v[s] = x
	}
	return m
}

func convScatterVec(vmem, wsc []float32, taps []ConvTap, outC, b int, pv []float32) {
	outCb := outC * b
	pv = pv[:b]
	for _, tp := range taps {
		dst := vmem[int(tp.Base)*outCb : int(tp.Base)*outCb+outCb]
		row := wsc[tp.WOff : int(tp.WOff)+outC]
		off := 0
		for _, w := range row {
			stripe := dst[off : off+b]
			for j, p := range pv {
				wp := w * p
				stripe[j] += wp
			}
			off += b
		}
	}
}

func fireRowsBurst(v, g, pay []float32, fired []uint32, masks, occ []uint64, n, b int, bias []float32, bsc, beta, vth float32) {
	var w uint64
	for c := 0; c < n; c++ {
		var bv float32
		if bias != nil {
			bv = bias[c] * bsc
		}
		o := c * b
		m := fireRowBurst(v[o:o+b], g[o:o+b], pay[o:o+b], fired[o:o+b], bv, beta, vth)
		masks[c] = m
		if m != 0 {
			w |= 1 << (uint(c) & 63)
		}
		if c&63 == 63 {
			occ[c>>6] = w
			w = 0
		}
	}
	if n&63 != 0 {
		occ[(n-1)>>6] = w
	}
}

func selectMaxRow(best, row []float32, idx []int32, o int32, lanes int) {
	for s := 0; s < lanes; s++ {
		if row[s] > best[s] {
			best[s] = row[s]
			idx[s] = o
		}
	}
}

// laneMaskBit is branch-free: the compiler turns the masked shift into
// straight-line code.
func laneMaskBit(row []uint64, shift uint) uint64 {
	var m uint64
	for s, x := range row {
		m |= (x >> shift & 1) << uint(s)
	}
	return m
}

func laneMaskEq(row []uint64, want uint64) uint64 {
	var m uint64
	for s, x := range row {
		if x == want {
			m |= 1 << uint(s)
		}
	}
	return m
}
