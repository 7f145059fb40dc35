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

// Restore overwrites the network's learned state with a Snapshot. The
// layer structure must match the receiver's — a snapshot from a
// differently shaped network is rejected, not silently truncated — and
// a rejected snapshot leaves the network as it was.
func (m *MLP) Restore(data []byte) error {
	c := checkpoint.NewReader(data)
	m.state(c)
	if err := c.Close(); err != nil {
		return fmt.Errorf("neural: %w", err)
	}
	return nil
}

// state writes or reads the snapshot layout. A reader reads the rows
// into a clone's storage and commits them only once the whole payload
// has been read, so a truncated snapshot cannot leave the network
// half-restored.
func (m *MLP) state(c *checkpoint.Codec) {
	checkpoint.Expect(c, "mlp", "snapshot kind")
	sizes := m.sizes
	c.Ints(&sizes)
	if !slices.Equal(sizes, m.sizes) {
		c.Failf("snapshot layers %v, network %v", sizes, m.sizes)
	}
	if c.Err() != nil {
		return
	}
	n := m
	if c.Reading() {
		n = m.Clone()
	}
	for l := range n.weights {
		out, in := m.sizes[l+1], m.sizes[l]
		for j := 0; j < out; j++ {
			c.F64s(&n.weights[l][j])
			c.F64s(&n.wVel[l][j])
			if len(n.weights[l][j]) != in || len(n.wVel[l][j]) != in {
				c.Failf("snapshot row width mismatch at layer %d", l)
			}
		}
		c.F64s(&n.biases[l])
		c.F64s(&n.bVel[l])
		if len(n.biases[l]) != out || len(n.bVel[l]) != out {
			c.Failf("snapshot bias width mismatch at layer %d", l)
		}
	}
	if c.Commit() {
		m.weights, m.wVel, m.biases, m.bVel = n.weights, n.wVel, n.biases, n.bVel
		m.fwd = false
	}
}
