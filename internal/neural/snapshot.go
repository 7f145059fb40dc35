package neural

import (
	"fmt"

	"mmogdc/internal/checkpoint"
)

// Snapshot serializes the network's learned state — weights, biases,
// and the momentum buffers that shape the very next update — so an
// online-adapting predictor restored from a checkpoint continues
// training exactly where the crashed one stopped. The scratch
// activation buffers are transient and excluded.
func (m *MLP) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str("mlp")
	e.Ints(m.sizes)
	for l := range m.weights {
		for j := range m.weights[l] {
			e.F64s(m.weights[l][j])
			e.F64s(m.wVel[l][j])
		}
		e.F64s(m.biases[l])
		e.F64s(m.bVel[l])
	}
	return e.Data()
}

// Restore overwrites the network's learned state with a Snapshot. The
// layer structure must match the receiver's — a snapshot from a
// differently shaped network is rejected, not silently truncated.
func (m *MLP) Restore(data []byte) error {
	d := checkpoint.NewDec(data)
	if kind := d.Str(); kind != "mlp" {
		return fmt.Errorf("neural: snapshot kind %q, want mlp", kind)
	}
	sizes := d.Ints()
	if len(sizes) != len(m.sizes) {
		return fmt.Errorf("neural: snapshot has %d layers, network %d", len(sizes), len(m.sizes))
	}
	for i, s := range sizes {
		if s != m.sizes[i] {
			return fmt.Errorf("neural: snapshot layer %d size %d, network %d", i, s, m.sizes[i])
		}
	}
	// Decode into fresh storage first so a truncated snapshot cannot
	// leave the network half-restored.
	w := make([][][]float64, len(m.weights))
	wv := make([][][]float64, len(m.weights))
	b := make([][]float64, len(m.weights))
	bv := make([][]float64, len(m.weights))
	for l := range m.weights {
		out, in := m.sizes[l+1], m.sizes[l]
		w[l] = make([][]float64, out)
		wv[l] = make([][]float64, out)
		for j := 0; j < out; j++ {
			w[l][j] = d.F64s()
			wv[l][j] = d.F64s()
			if d.Err() == nil && (len(w[l][j]) != in || len(wv[l][j]) != in) {
				return fmt.Errorf("neural: snapshot row width mismatch at layer %d", l)
			}
		}
		b[l] = d.F64s()
		bv[l] = d.F64s()
		if d.Err() == nil && (len(b[l]) != out || len(bv[l]) != out) {
			return fmt.Errorf("neural: snapshot bias width mismatch at layer %d", l)
		}
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("neural: %w", err)
	}
	m.weights, m.wVel, m.biases, m.bVel = w, wv, b, bv
	m.fwd = false
	return nil
}
