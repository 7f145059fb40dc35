package neural

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/xrand"
)

// save returns the payload v's state method writes.
func save(v interface{ State(*checkpoint.Codec) }) []byte {
	c := checkpoint.NewWriter()
	v.State(c)
	return c.Data()
}

// load reads data into v with its state method, refusing data unless v
// read all of it.
func load(v interface{ State(*checkpoint.Codec) }, data []byte) error {
	c := checkpoint.NewReader(data)
	v.State(c)
	return c.Close()
}

// snapshotRows reads an MLP snapshot back as its layer sizes and its
// rows in payload order: per layer, each neuron's weights and their
// momentum, then the biases and their momentum.
func snapshotRows(t *testing.T, snap []byte) ([]int, [][]float64) {
	t.Helper()
	c := checkpoint.NewReader(snap)
	checkpoint.Expect(c, "mlp", "snapshot kind")
	var sizes []int
	c.Ints(&sizes)
	var rows [][]float64
	for l := 0; l+1 < len(sizes); l++ {
		for k := 0; k < 2*sizes[l+1]+2; k++ {
			var row []float64
			c.F64s(&row)
			rows = append(rows, row)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes, rows
}

// writeRows encodes sizes and rows in the snapshot layout.
func writeRows(sizes []int, rows [][]float64) []byte {
	c := checkpoint.NewWriter()
	checkpoint.Expect(c, "mlp", "snapshot kind")
	c.Ints(&sizes)
	for _, row := range rows {
		c.F64s(&row)
	}
	return c.Data()
}

// shapeRows draws the rows of a snapshot of the given layer sizes, in
// the snapshot layout.
func shapeRows(r *xrand.Rand, sizes []int) [][]float64 {
	var rows [][]float64
	row := func(n int) {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm(0, 0.5)
		}
		rows = append(rows, v)
	}
	for l := 0; l+1 < len(sizes); l++ {
		for j := 0; j < sizes[l+1]; j++ {
			row(sizes[l])
			row(sizes[l])
		}
		row(sizes[l+1])
		row(sizes[l+1])
	}
	return rows
}

// TestMLPRestoreRefusals restores into a trained (6,3,1) network
// snapshots of the layer shapes [6 4 1], [4 3 2] and [6 3], each
// snapshot whose weight, momentum or bias row is one float short or one
// float long, every truncation of a valid snapshot and the valid
// snapshot padded by a byte. Each must be refused, and the network's
// next Forward and Snapshot must be those of an untouched twin.
func TestMLPRestoreRefusals(t *testing.T) {
	r := xrand.New(3)
	train := func(m *MLP) {
		for i := 0; i < 50; i++ {
			m.TrainClipped([]float64{0.1, 0.2, 0.3, 0.4, 0.5, float64(i) / 50}, []float64{0.3}, 0.05, 0.5, 0)
		}
	}
	net, twin, donor := NewMLP(xrand.New(1)), NewMLP(xrand.New(1)), NewMLP(xrand.New(2))
	train(&net)
	train(&twin)
	train(&donor)
	valid := save(&donor)

	sizes, rows := snapshotRows(t, valid)
	if !bytes.Equal(writeRows(sizes, rows), valid) {
		t.Fatal("re-encoded rows differ from the snapshot")
	}
	type refusal struct {
		name string
		data []byte
	}
	var bad []refusal
	for _, shape := range [][]int{{6, 4, 1}, {4, 3, 2}, {6, 3}} {
		bad = append(bad, refusal{fmt.Sprintf("layers %v", shape), writeRows(shape, shapeRows(r, shape))})
	}
	for k := range rows {
		short := slices.Clone(rows)
		short[k] = rows[k][:len(rows[k])-1]
		long := slices.Clone(rows)
		long[k] = append(slices.Clone(rows[k]), 0.5)
		bad = append(bad,
			refusal{fmt.Sprintf("row %d short", k), writeRows(sizes, short)},
			refusal{fmt.Sprintf("row %d long", k), writeRows(sizes, long)})
	}
	for n := 0; n < len(valid); n++ {
		bad = append(bad, refusal{fmt.Sprintf("truncated to %d bytes", n), valid[:n]})
	}
	bad = append(bad, refusal{"padded by a byte", append(slices.Clip(valid), 0)})

	in := make([]float64, 6)
	for _, b := range bad {
		name := b.name
		if err := load(&net, b.data); err == nil {
			t.Fatalf("%s: restored", name)
		}
		for i := range in {
			in[i] = r.Float64()
		}
		got, want := net.Forward(in), twin.Forward(in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Forward after the refusal %v, untouched twin %v", name, got, want)
		}
		if !bytes.Equal(save(&net), save(&twin)) {
			t.Fatalf("%s: the refusal changed the snapshot", name)
		}
	}
	if err := load(&net, valid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(&net), valid) {
		t.Fatal("a valid snapshot did not restore")
	}
}
