package neural

import (
	"bytes"
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

func TestNewMLPValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewMLP(r, 6); err == nil {
		t.Error("single-layer network should be rejected")
	}
	if _, err := NewMLP(r, 6, 0, 1); err == nil {
		t.Error("zero-width layer should be rejected")
	}
	m, err := NewMLP(r, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Forward(make([]float64, 6)); len(out) != 1 {
		t.Fatalf("a (6,3,1) network gives %d outputs", len(out))
	}
}

func TestForwardDeterministic(t *testing.T) {
	m1, _ := NewMLP(xrand.New(5), 4, 3, 2)
	m2, _ := NewMLP(xrand.New(5), 4, 3, 2)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	o1 := append([]float64(nil), m1.Forward(in)...)
	o2 := m2.Forward(in)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same-seed networks disagree at output %d", i)
		}
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size input did not panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestTrainReducesLossOnLinearFunction(t *testing.T) {
	m, _ := NewMLP(xrand.New(7), 2, 4, 1)
	f := func(x, y float64) float64 { return 0.3*x - 0.2*y + 0.1 }
	r := xrand.New(8)
	var first, last float64
	const steps = 4000
	for i := 0; i < steps; i++ {
		x, y := r.Float64(), r.Float64()
		loss := m.TrainClipped([]float64{x, y}, []float64{f(x, y)}, 0.05, 0.5, 0)
		if i < 100 {
			first += loss
		}
		if i >= steps-100 {
			last += loss
		}
	}
	if last > first/3 {
		t.Fatalf("loss did not shrink: first-100 sum %v, last-100 sum %v", first, last)
	}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// XOR-like target requires the hidden layer.
	m, _ := NewMLP(xrand.New(11), 2, 6, 1)
	data := []Sample{
		{In: []float64{0, 0}, Target: []float64{0}},
		{In: []float64{0, 1}, Target: []float64{1}},
		{In: []float64{1, 0}, Target: []float64{1}},
		{In: []float64{1, 1}, Target: []float64{0}},
	}
	res := m.Fit(data, nil, TrainConfig{LearningRate: 0.1, Momentum: 0.5, MaxEras: 4000, Patience: 4000})
	if res.TrainLoss > 0.03 {
		t.Fatalf("XOR loss after %d eras = %v", res.Eras, res.TrainLoss)
	}
	for _, s := range data {
		out := m.Forward(s.In)[0]
		if math.Abs(out-s.Target[0]) > 0.3 {
			t.Errorf("XOR(%v) = %v, want %v", s.In, out, s.Target[0])
		}
	}
}

func TestTrainPanicsOnBadTarget(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size target did not panic")
		}
	}()
	m.TrainClipped([]float64{1, 2}, []float64{1, 2}, 0.1, 0, 0)
}

// TestFitPanicsOnWrongWidth hands Fit a training or test sample whose
// input or target has the wrong width, last in its set: Fit must panic
// before any weight moves.
func TestFitPanicsOnWrongWidth(t *testing.T) {
	good := Sample{In: []float64{0.1, 0.2}, Target: []float64{0.3}}
	for name, bad := range map[string]Sample{
		"short input": {In: []float64{0.1}, Target: []float64{0.3}},
		"long target": {In: []float64{0.1, 0.2}, Target: []float64{0.3, 0.4}},
	} {
		for _, inTest := range []bool{false, true} {
			m, _ := NewMLP(xrand.New(1), 2, 2, 1)
			before := m.Snapshot()
			train, test := []Sample{good, good, bad}, []Sample{good}
			if inTest {
				train, test = []Sample{good, good}, []Sample{good, bad}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s (in the test set: %v) did not panic", name, inTest)
					}
				}()
				m.Fit(train, test, TrainConfig{MaxEras: 3})
			}()
			if !bytes.Equal(m.Snapshot(), before) {
				t.Fatalf("%s (in the test set: %v): weights moved before the panic", name, inTest)
			}
		}
	}
}

func TestFitConvergence(t *testing.T) {
	// An easy target should trigger the patience-based convergence
	// criterion well before MaxEras.
	m, _ := NewMLP(xrand.New(13), 1, 2, 1)
	var train, test []Sample
	for i := 0; i < 32; i++ {
		x := float64(i) / 32
		s := Sample{In: []float64{x}, Target: []float64{0.5 * x}}
		if i%4 == 0 {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	res := m.Fit(train, test, TrainConfig{MaxEras: 2000})
	if !res.Converged {
		t.Fatalf("training did not converge in %d eras (test loss %v)", res.Eras, res.TestLoss)
	}
	if res.Eras >= 2000 {
		t.Fatal("convergence flag set but all eras used")
	}
}

func TestFitEmptyTrainSet(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 1, 1, 1)
	res := m.Fit(nil, nil, TrainConfig{})
	if res.Eras != 0 || res.Converged {
		t.Fatalf("empty fit result = %+v", res)
	}
}

func TestLossEmpty(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 1, 1, 1)
	if m.Loss(nil) != 0 {
		t.Fatal("Loss(nil) should be 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewMLP(xrand.New(17), 2, 3, 1)
	in := []float64{0.4, -0.1}
	before := m.Forward(in)[0]
	c := m.Clone()
	// Training the clone must not affect the original.
	for i := 0; i < 100; i++ {
		c.TrainClipped(in, []float64{2}, 0.1, 0.5, 0)
	}
	after := m.Forward(in)[0]
	if before != after {
		t.Fatal("training the clone changed the original")
	}
	if c.Forward(in)[0] == before {
		t.Fatal("clone did not learn")
	}
}

// TestTrainReuseMatchesRecompute drives a network that may train from
// its last forward pass beside a clone whose pass is discarded before
// every training step, through a seeded random walk of forward passes,
// training steps, a Forward or Loss on another input in between, a
// training input changed in place (a zero's sign flipped), and restores
// from a third network into both. Outputs, losses, weights and momentum
// must stay bit-equal, so the reuse never fires on a stale pass.
func TestTrainReuseMatchesRecompute(t *testing.T) {
	r := xrand.New(41)
	a, _ := NewMLP(xrand.New(1), 6, 3, 1)
	b := a.Clone()
	other, _ := NewMLP(xrand.New(2), 6, 3, 1)
	x := make([]float64, 6)
	y := make([]float64, 6)
	fill := func(v []float64) {
		for i := range v {
			v[i] = r.Float64()
			if r.Bool(0.1) {
				v[i] = 0
			}
		}
	}
	fill(x)
	target := []float64{0}
	var reused, recomputed int
	for step := 0; step < 20000; step++ {
		switch k := r.Intn(100); {
		case k < 30: // Predict on a new window
			fill(x)
			oa, ob := a.Forward(x)[0], b.Forward(x)[0]
			if math.Float64bits(oa) != math.Float64bits(ob) {
				t.Fatalf("step %d: Forward %v, recomputing clone %v", step, oa, ob)
			}
		case k < 65: // Observe: train on the current window
			target[0] = r.Norm(0, 0.5)
			clip := 0.25 * float64(r.Intn(2))
			if a.fwd && sameBits(x, a.acts[:len(x)]) {
				reused++
			} else {
				recomputed++
			}
			b.fwd = false
			la := a.TrainClipped(x, target, 0.05, 0.5, clip)
			lb := b.TrainClipped(x, target, 0.05, 0.5, clip)
			if math.Float64bits(la) != math.Float64bits(lb) {
				t.Fatalf("step %d: loss %v, recomputing clone %v", step, la, lb)
			}
		case k < 75: // a Forward on another input
			fill(y)
			a.Forward(y)
			b.Forward(y)
		case k < 82: // a Loss on another input
			fill(y)
			s := []Sample{{In: y, Target: []float64{0.1}}}
			if la, lb := a.Loss(s), b.Loss(s); math.Float64bits(la) != math.Float64bits(lb) {
				t.Fatalf("step %d: Loss %v, recomputing clone %v", step, la, lb)
			}
		case k < 90: // the window changes in place: a zero flips its sign
			i := r.Intn(len(x))
			x[i] = math.Copysign(0, -math.Copysign(1, x[i]))
		default: // restore another network's state into both
			other.TrainClipped(y, []float64{r.Norm(0, 0.5)}, 0.05, 0.5, 0)
			snap := other.Snapshot()
			if err := a.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("step %d: weights diverged from the recomputing clone", step)
		}
	}
	if reused < 1000 || recomputed < 1000 {
		t.Fatalf("walk reused the forward pass %d times and recomputed it %d times, want both >= 1000",
			reused, recomputed)
	}
}

func BenchmarkForward631(b *testing.B) {
	m, _ := NewMLP(xrand.New(1), 6, 3, 1)
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(in)
	}
}

func BenchmarkTrain631(b *testing.B) {
	m, _ := NewMLP(xrand.New(1), 6, 3, 1)
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	target := []float64{0.35}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TrainClipped(in, target, 0.05, 0.5, 0)
	}
}
