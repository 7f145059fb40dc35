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

// refMLP is the general network MLP replaced: any number of layers of
// any width, each kind of state one flat slice located by a span per
// layer. It is kept as the reference the fixed-shape (6,3,1) kernel
// must match bit for bit (TestKernelMatchesReference).
type refMLP struct {
	sizes        []int
	layers       []refSpan
	params, vel  []float64
	acts, deltas []float64
	fwd          bool
}

// refSpan locates one layer of in×out weights in a refMLP's flat
// slices: its weight rows at w and its biases at b in params and vel,
// its input and output neurons at src and dst in acts and deltas.
type refSpan struct{ in, out, w, b, src, dst int }

// newRefMLP builds a network with the given layer sizes, drawing the
// weights layer by layer, neuron by neuron, input by input.
func newRefMLP(r *xrand.Rand, sizes ...int) *refMLP {
	m := &refMLP{sizes: append([]int(nil), sizes...)}
	np, na := 0, sizes[0]
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		m.layers = append(m.layers, refSpan{in: in, out: out, w: np, b: np + out*in, src: na - in, dst: na})
		np += (in + 1) * out
		na += out
	}
	m.params = make([]float64, np)
	for _, ly := range m.layers {
		scale := math.Sqrt(2.0 / float64(ly.in+ly.out))
		for i := ly.w; i < ly.b; i++ {
			m.params[i] = r.Norm(0, scale)
		}
	}
	m.vel, m.acts, m.deltas = make([]float64, np), make([]float64, na), make([]float64, na)
	return m
}

func (m *refMLP) Forward(in []float64) []float64 {
	if len(in) != m.sizes[0] {
		panic(fmt.Sprintf("neural: input size %d, want %d", len(in), m.sizes[0]))
	}
	copy(m.acts, in)
	for l, ly := range m.layers {
		src := m.acts[ly.src:ly.dst]
		dst := m.acts[ly.dst : ly.dst+ly.out]
		b := m.params[ly.b : ly.b+ly.out]
		for j := range dst {
			sum := b[j]
			wj := m.params[ly.w+j*ly.in:][:len(src)]
			for i, x := range src {
				sum += wj[i] * x
			}
			if l+1 == len(m.layers) {
				dst[j] = sum // linear output
			} else {
				dst[j] = math.Tanh(sum)
			}
		}
	}
	m.fwd = true
	return m.acts[m.layers[len(m.layers)-1].dst:]
}

func (m *refMLP) TrainClipped(in, target []float64, lr, momentum, clip float64) float64 {
	last := m.layers[len(m.layers)-1].dst
	out := m.acts[last:]
	if !m.fwd || !refSameBits(in, m.acts[:m.sizes[0]]) {
		out = m.Forward(in)
	}
	if len(target) != len(out) {
		panic(fmt.Sprintf("neural: target size %d, want %d", len(target), len(out)))
	}
	m.fwd = false
	var loss float64
	delta := m.deltas[last:]
	for j := range out {
		err := out[j] - target[j]
		loss += err * err
		if clip > 0 {
			if err > clip {
				err = clip
			} else if err < -clip {
				err = -clip
			}
		}
		delta[j] = err // linear output: delta = error
	}
	// Backpropagate through hidden layers (tanh derivative 1 - a^2).
	for l := len(m.layers) - 1; l >= 1; l-- {
		ly := m.layers[l]
		next := m.deltas[ly.dst : ly.dst+ly.out]
		for i := 0; i < ly.in; i++ {
			var sum float64
			for j, d := range next {
				sum += m.params[ly.w+j*ly.in+i] * d
			}
			a := m.acts[ly.src+i]
			m.deltas[ly.src+i] = sum * (1 - a*a)
		}
	}
	// Gradient descent with momentum.
	for _, ly := range m.layers {
		src := m.acts[ly.src:ly.dst]
		d := m.deltas[ly.dst : ly.dst+ly.out]
		b, bv := m.params[ly.b:ly.b+ly.out], m.vel[ly.b:ly.b+ly.out]
		for j, g := range d {
			wj := m.params[ly.w+j*ly.in:][:len(src)]
			vj := m.vel[ly.w+j*ly.in:][:len(src)]
			for i, x := range src {
				vj[i] = momentum*vj[i] - lr*g*x
				wj[i] += vj[i]
			}
			bv[j] = momentum*bv[j] - lr*g
			b[j] += bv[j]
		}
	}
	return loss
}

// refSameBits reports whether a and b hold the same float64 bit
// patterns.
func refSameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the weights with fresh momentum and
// activations.
func (m *refMLP) Clone() *refMLP {
	return &refMLP{
		sizes:  m.sizes,
		layers: m.layers,
		params: slices.Clone(m.params),
		vel:    make([]float64, len(m.vel)),
		acts:   make([]float64, len(m.acts)),
		deltas: make([]float64, len(m.deltas)),
	}
}

// State writes or reads the snapshot layout: per layer, each neuron's
// weight row and its momentum, then the biases and their momentum.
func (m *refMLP) State(c *checkpoint.Codec) {
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

// sameSnapshot reports whether two MLP snapshots hold the same layer
// sizes and rows, value by value as sameFloat (fitplan_test.go)
// compares them.
func sameSnapshot(t *testing.T, a, b []byte) bool {
	t.Helper()
	sa, ra := snapshotRows(t, a)
	sb, rb := snapshotRows(t, b)
	if !slices.Equal(sa, sb) || len(ra) != len(rb) {
		return false
	}
	for k := range ra {
		if len(ra[k]) != len(rb[k]) {
			return false
		}
		for i := range ra[k] {
			if !sameFloat(ra[k][i], rb[k][i]) {
				return false
			}
		}
	}
	return true
}

// TestKernelMatchesReference drives the (6,3,1) kernel beside a (6,3,1)
// refMLP drawn from the same seed through 1,000 seeded walks of 200
// steps. Each step is a Forward, a TrainClipped, a Clone, a State write
// or a State read (of an earlier snapshot, or of one cut short, which
// both must refuse). Inputs and targets include ±0, subnormals, ±1e308, ±Inf
// and NaN; learning rates, momenta and clips include 0, -0, negative
// and subnormal values. Every output, loss and snapshot must be equal
// bit for bit, NaN compared only as NaN.
func TestKernelMatchesReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-320,
		1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	rates := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, -0.05, -1,
		0.002, 0.01, 0.05, 0.25, 0.5, 0.9, 2}
	walks, steps := 1000, 200
	if testing.Short() {
		walks = 100
	}
	var finite, nonFinite, reused int
	for walk := 0; walk < walks; walk++ {
		r := xrand.New(uint64(walk) + 1000)
		value := func() float64 {
			if r.Bool(0.01) {
				return specials[r.Intn(len(specials))]
			}
			return r.Norm(0, 1)
		}
		rate := func() float64 { return rates[r.Intn(len(rates))] }
		k := NewMLP(xrand.New(uint64(walk)))
		ref := newRefMLP(xrand.New(uint64(walk)), Inputs, Hidden, 1)
		saved := save(&k)
		if !bytes.Equal(saved, save(ref)) {
			t.Fatalf("walk %d: NewMLP drew other weights than the reference", walk)
		}
		x := make([]float64, Inputs)
		fill := func() {
			for i := range x {
				x[i] = value()
			}
		}
		fill()
		for step := 0; step < steps; step++ {
			where := func() string { return fmt.Sprintf("walk %d, step %d", walk, step) }
			switch op := r.Intn(100); {
			case op < 25: // Forward, on a new input or the last one
				if r.Bool(0.7) {
					fill()
				}
				got, want := k.Forward(x), ref.Forward(x)[0]
				if !sameFloat(got, want) {
					t.Fatalf("%s: Forward %v, reference %v", where(), got, want)
				}
				if got-got == 0 {
					finite++
				} else {
					nonFinite++
				}
			case op < 70: // TrainClipped, on the last input, a new one or a zero's sign flipped
				switch c := r.Intn(10); {
				case c < 4:
					fill()
				case c < 5:
					i := r.Intn(len(x))
					if x[i] == 0 {
						x[i] = -x[i]
					}
				}
				if k.fwd && sameBits((*[Inputs]float64)(x), &k.in) {
					reused++
				}
				target := []float64{value()}
				lr, momentum, clip := rate(), rate(), rate()
				got := k.TrainClipped(x, target, lr, momentum, clip)
				want := ref.TrainClipped(x, target, lr, momentum, clip)
				if !sameFloat(got, want) {
					t.Fatalf("%s: TrainClipped(lr %v, momentum %v, clip %v) loss %v, reference %v",
						where(), lr, momentum, clip, got, want)
				}
			case op < 75: // Clone
				k, ref = k.Clone(), ref.Clone()
			case op < 90: // Snapshot
				snap := save(&k)
				if !sameSnapshot(t, snap, save(ref)) {
					t.Fatalf("%s: snapshot differs from the reference's", where())
				}
				if r.Bool(0.5) {
					saved = snap
				}
			default: // Restore an earlier snapshot, or refuse one cut short
				data := saved
				if r.Bool(0.3) {
					data = saved[:r.Intn(len(saved))]
				}
				ek, er := load(&k, data), load(ref, data)
				if (ek == nil) != (er == nil) || (ek == nil) != (len(data) == len(saved)) {
					t.Fatalf("%s: Restore of %d of %d bytes: %v, reference %v", where(), len(data), len(saved), ek, er)
				}
			}
		}
		if !sameSnapshot(t, save(&k), save(ref)) {
			t.Fatalf("walk %d: final snapshot differs from the reference's", walk)
		}
	}
	t.Logf("walks gave %d finite and %d non-finite outputs and reused %d forward passes", finite, nonFinite, reused)
	if finite < nonFinite || nonFinite == 0 || reused == 0 {
		t.Fatalf("walks gave %d finite and %d non-finite outputs and reused %d forward passes", finite, nonFinite, reused)
	}
}
