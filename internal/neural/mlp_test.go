package neural

import (
	"bytes"
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

func TestForwardDeterministic(t *testing.T) {
	m1, m2 := NewMLP(xrand.New(5)), NewMLP(xrand.New(5))
	in := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	if o1, o2 := m1.Forward(in), m2.Forward(in); o1 != o2 {
		t.Fatalf("same-seed networks disagree: %v and %v", o1, o2)
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m := NewMLP(xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size input did not panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestTrainReducesLossOnLinearFunction(t *testing.T) {
	m := NewMLP(xrand.New(7))
	f := func(x []float64) float64 { return 0.3*x[0] - 0.2*x[3] + 0.1*x[5] + 0.1 }
	r := xrand.New(8)
	x := make([]float64, Inputs)
	var first, last float64
	const steps = 4000
	for i := 0; i < steps; i++ {
		for k := range x {
			x[k] = r.Float64()
		}
		loss := m.TrainClipped(x, []float64{f(x)}, 0.05, 0.5, 0)
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

// xorRows is XOR over the first two inputs, the other four held at
// zero.
func xorRows() []Row {
	var rows []Row
	for _, c := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		var r Row
		r.In[0], r.In[1], r.Target = c[0], c[1], c[2]
		rows = append(rows, r)
	}
	return rows
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// XOR requires the hidden layer.
	m := NewMLP(xrand.New(12))
	data := xorRows()
	res := m.Fit(data, nil, TrainConfig{LearningRate: 0.1, Momentum: 0.5, MaxEras: 4000, Patience: 4000})
	if res.TrainLoss > 0.03 {
		t.Fatalf("XOR loss after %d eras = %v", res.Eras, res.TrainLoss)
	}
	for _, r := range data {
		if out := m.Forward(r.In[:]); math.Abs(out-r.Target) > 0.3 {
			t.Errorf("XOR(%v) = %v, want %v", r.In[:2], out, r.Target)
		}
	}
}

func TestTrainPanicsOnBadTarget(t *testing.T) {
	m := NewMLP(xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size target did not panic")
		}
	}()
	m.TrainClipped(make([]float64, Inputs), []float64{1, 2}, 0.1, 0, 0)
}

func TestFitConvergence(t *testing.T) {
	// An easy target should trigger the patience-based convergence
	// criterion well before MaxEras.
	m := NewMLP(xrand.New(13))
	var train, test []Row
	for i := 0; i < 32; i++ {
		var r Row
		x := float64(i) / 32
		r.In[0], r.Target = x, 0.5*x
		if i%4 == 0 {
			test = append(test, r)
		} else {
			train = append(train, r)
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
	m := NewMLP(xrand.New(1))
	res := m.Fit(nil, nil, TrainConfig{})
	if res.Eras != 0 || res.Converged {
		t.Fatalf("empty fit result = %+v", res)
	}
}

func TestLossEmpty(t *testing.T) {
	m := NewMLP(xrand.New(1))
	if m.Loss(nil) != 0 {
		t.Fatal("Loss(nil) should be 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMLP(xrand.New(17))
	in := []float64{0.4, -0.1, 0.2, 0, 0.3, -0.6}
	before := m.Forward(in)
	c := m.Clone()
	// Training the clone must not affect the original.
	for i := 0; i < 100; i++ {
		c.TrainClipped(in, []float64{2}, 0.1, 0.5, 0)
	}
	if after := m.Forward(in); before != after {
		t.Fatal("training the clone changed the original")
	}
	if c.Forward(in) == before {
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
	a := NewMLP(xrand.New(1))
	b := a.Clone()
	other := NewMLP(xrand.New(2))
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
			oa, ob := a.Forward(x), b.Forward(x)
			if math.Float64bits(oa) != math.Float64bits(ob) {
				t.Fatalf("step %d: Forward %v, recomputing clone %v", step, oa, ob)
			}
		case k < 65: // Observe: train on the current window
			target[0] = r.Norm(0, 0.5)
			clip := 0.25 * float64(r.Intn(2))
			if a.fwd && sameBits((*[Inputs]float64)(x), &a.in) {
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
			s := []Row{{In: [Inputs]float64(y), Target: 0.1}}
			if la, lb := a.Loss(s), b.Loss(s); math.Float64bits(la) != math.Float64bits(lb) {
				t.Fatalf("step %d: Loss %v, recomputing clone %v", step, la, lb)
			}
		case k < 90: // the window changes in place: a zero flips its sign
			i := r.Intn(len(x))
			x[i] = math.Copysign(0, -math.Copysign(1, x[i]))
		default: // restore another network's state into both
			other.TrainClipped(y, []float64{r.Norm(0, 0.5)}, 0.05, 0.5, 0)
			snap := save(&other)
			if err := load(&a, snap); err != nil {
				t.Fatal(err)
			}
			if err := load(&b, snap); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(save(&a), save(&b)) {
			t.Fatalf("step %d: weights diverged from the recomputing clone", step)
		}
	}
	if reused < 1000 || recomputed < 1000 {
		t.Fatalf("walk reused the forward pass %d times and recomputed it %d times, want both >= 1000",
			reused, recomputed)
	}
}

func BenchmarkForward631(b *testing.B) {
	m := NewMLP(xrand.New(1))
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(in)
	}
}

func BenchmarkTrain631(b *testing.B) {
	m := NewMLP(xrand.New(1))
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	target := []float64{0.35}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TrainClipped(in, target, 0.05, 0.5, 0)
	}
}
