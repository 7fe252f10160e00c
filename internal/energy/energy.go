// Package energy estimates inference energy on neuromorphic hardware the
// way the paper's Section 4.2 does: total energy decomposes into
// computation, routing, and static parts, each scaled by a different
// workload statistic —
//
//	E_comp   ∝ number of spikes (synaptic events)
//	E_route  ∝ spiking density  (traffic per neuron per step)
//	E_static ∝ latency          (time steps the chip is powered)
//
// The per-architecture ratios come from the TrueNorth (Merolla et al.
// 2014), SpiNNaker (Furber et al. 2014), and Moradi & Manohar 2018
// characterizations the paper cites: TrueNorth is event-driven silicon
// whose budget is dominated by spike delivery, while SpiNNaker's ARM
// cores pay a much larger static and routing share. Estimates are
// reported normalized to a baseline row, exactly as in Table 2.
package energy

import "fmt"

// Profile is one neuromorphic architecture's energy decomposition. The
// three ratios express the share of the chip's total budget attributable
// to each component under a reference workload; they need not sum to 1
// (only relative magnitudes matter after normalization).
type Profile struct {
	Name string
	// Comp scales with the spike count.
	Comp float64
	// Route scales with spiking density.
	Route float64
	// Static scales with latency.
	Static float64
}

// TrueNorth returns the event-driven digital profile: computation (spike
// delivery and neuron updates) dominates, static power is famously tiny
// (~70 mW chip), routing is moderate.
func TrueNorth() Profile {
	return Profile{Name: "TrueNorth", Comp: 0.65, Route: 0.25, Static: 0.10}
}

// SpiNNaker returns the ARM-many-core profile: large static share (clocked
// cores idle-burn), substantial packet-routing cost, smaller marginal
// computation share.
func SpiNNaker() Profile {
	return Profile{Name: "SpiNNaker", Comp: 0.30, Route: 0.25, Static: 0.45}
}

// Workload captures what one SNN inference configuration cost.
type Workload struct {
	// Spikes is the total spike count per image.
	Spikes float64
	// Density is spikes / (neurons · latency).
	Density float64
	// Latency is the number of simulated time steps.
	Latency float64
}

// Validate rejects physically meaningless workloads.
func (w Workload) Validate() error {
	if w.Spikes < 0 || w.Density < 0 || w.Latency <= 0 {
		return fmt.Errorf("energy: invalid workload %+v", w)
	}
	return nil
}

// Estimate returns the (unnormalized) energy of the workload under the
// profile. Units are arbitrary; use Normalize to express results relative
// to a baseline as the paper does.
func Estimate(p Profile, w Workload) float64 {
	return p.Comp*w.Spikes + p.Route*w.Density*refDensityScale + p.Static*w.Latency*refStaticScale
}

// refDensityScale and refStaticScale bring the three terms to comparable
// magnitudes for the harness's workloads (spike counts in the 1e4-1e6
// range, densities in 1e-2..0.5, latencies in 1e1-1e3). They mirror the
// paper's procedure of splitting a chip's measured total energy
// proportionally; only ratios between configurations survive
// normalization, so the exact constants affect the scale of the mix, not
// the ordering within a term.
const (
	refDensityScale = 2e5
	refStaticScale  = 2e2
)

// Normalize expresses each workload's energy relative to the baseline
// workload (index base), matching Table 2's "normalized energy" columns.
func Normalize(p Profile, ws []Workload, base int) ([]float64, error) {
	if base < 0 || base >= len(ws) {
		return nil, fmt.Errorf("energy: baseline index %d out of range", base)
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}
	baseE := Estimate(p, ws[base])
	if baseE == 0 {
		return nil, fmt.Errorf("energy: baseline workload has zero energy")
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = Estimate(p, w) / baseE
	}
	return out, nil
}
