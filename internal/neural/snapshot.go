package neural

import (
	"slices"

	"mmogdc/internal/checkpoint"
)

// State writes or reads the network's learned state — weights, biases,
// and the momentum buffers that shape the very next update — so an
// online-adapting predictor restored from a checkpoint continues
// training exactly where the crashed one stopped. The layout is the
// layer sizes (6,3,1), then per layer each neuron's weight row and its
// momentum, then the biases and their momentum; the activations are
// transient and excluded. A reader refuses any other shape rather than
// truncating it, reads into a copy of the network and commits it only
// once the whole payload has been read, so a refused payload leaves the
// network as it was.
func (m *MLP) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, "mlp", "snapshot kind")
	shape := []int{Inputs, Hidden, 1}
	sizes := shape
	c.Ints(&sizes)
	if !slices.Equal(sizes, shape) {
		c.Failf("snapshot layers %v, network %v", sizes, shape)
	}
	if c.Err() != nil {
		return
	}
	q := *m
	for j := range q.w1 {
		c.F64Array(q.w1[j][:])
		c.F64Array(q.v1[j][:])
	}
	c.F64Array(q.b1[:])
	c.F64Array(q.vb1[:])
	c.F64Array(q.w2[:])
	c.F64Array(q.v2[:])
	b2, vb2 := [1]float64{q.b2}, [1]float64{q.vb2}
	c.F64Array(b2[:])
	c.F64Array(vb2[:])
	if c.Commit() {
		q.b2, q.vb2 = b2[0], vb2[0]
		q.fwd = false
		*m = q
	}
}
