package neural

import (
	"fmt"
	"slices"

	"mmogdc/internal/checkpoint"
)

// Snapshot serializes the network's learned state — weights, biases,
// and the momentum buffers that shape the very next update — so an
// online-adapting predictor restored from a checkpoint continues
// training exactly where the crashed one stopped. The scratch
// activation buffers are transient and excluded.
func (m *MLP) Snapshot() []byte {
	c := checkpoint.NewWriter()
	m.state(c)
	return c.Data()
}

// Restore overwrites the network's learned state with a Snapshot. A
// snapshot of any shape but (6,3,1) is rejected, not silently
// truncated, and a rejected snapshot leaves the network as it was.
func (m *MLP) Restore(data []byte) error {
	c := checkpoint.NewReader(data)
	m.state(c)
	if err := c.Close(); err != nil {
		return fmt.Errorf("neural: %w", err)
	}
	return nil
}

// state writes or reads the snapshot layout: the layer sizes (6,3,1),
// then per layer each neuron's weight row and its momentum, then the
// biases and their momentum. A reader reads into a copy of the network
// and commits it only once the whole payload has been read, so a
// refused snapshot cannot leave the network half-restored.
func (m *MLP) state(c *checkpoint.Codec) {
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
