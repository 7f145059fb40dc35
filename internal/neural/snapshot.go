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

// state writes or reads the snapshot layout: per layer, each neuron's
// weight row and its momentum, then the biases and their momentum. A
// reader reads the rows into copies and commits them only once the
// whole payload has been read, so a truncated snapshot cannot leave the
// network half-restored.
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
	params, vel := m.params, m.vel
	if c.Reading() {
		params, vel = slices.Clone(params), slices.Clone(vel)
	}
	for _, ly := range m.layers {
		for r := ly.w; r < ly.b; r += ly.in {
			c.F64Array(params[r : r+ly.in])
			c.F64Array(vel[r : r+ly.in])
		}
		c.F64Array(params[ly.b : ly.b+ly.out])
		c.F64Array(vel[ly.b : ly.b+ly.out])
	}
	if c.Commit() {
		copy(m.params, params)
		copy(m.vel, vel)
		m.fwd = false
	}
}
