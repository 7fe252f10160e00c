package snn

import "burstsnn/internal/coding"

// SingleNeuron is a standalone integrate-and-fire neuron with the full
// coding dynamics, used for the paper's Fig. 1 illustration and for unit
// experiments on neuron behaviour without building a network.
type SingleNeuron struct {
	pop *population
	t   int
}

// NewSingleNeuron creates a neuron under the given hidden-layer coding.
func NewSingleNeuron(cfg coding.Config) *SingleNeuron {
	return &SingleNeuron{pop: newPopulation(1, cfg)}
}

// Step injects the input current for one time step and reports whether
// the neuron fired and with what payload (0 when silent).
func (n *SingleNeuron) Step(current float64) (fired bool, payload float64) {
	n.pop.vmem[0] += current
	events := n.pop.fire(n.t, nil, 0)
	n.t++
	if len(events) == 0 {
		return false, 0
	}
	return true, events[0].Payload
}

// Reset restores the neuron to its initial state.
func (n *SingleNeuron) Reset() {
	n.pop.resetState()
	n.t = 0
}
