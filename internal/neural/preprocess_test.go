package neural

import (
	"math"
	"testing"
	"testing/quick"

	"mmogdc/internal/xrand"
)

// process runs p over in into a fresh slice.
func process(p Preprocessor, in []float64) []float64 {
	out := make([]float64, len(in))
	p.ProcessInto(out, in)
	return out
}

func TestIdentity(t *testing.T) {
	in := []float64{1, 2, 3}
	out := process(Identity{}, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("identity changed the window: %v", out)
		}
	}
	out[0] = 99
	if in[0] == 99 {
		t.Fatal("identity aliases its input")
	}
}

func TestPolySmootherReproducesPolynomial(t *testing.T) {
	// A window that already is a degree-2 polynomial must pass through
	// (numerically) unchanged.
	in := make([]float64, 8)
	for i := range in {
		x := float64(i)
		in[i] = 3 + 2*x - 0.5*x*x
	}
	out := process(&PolySmoother{Degree: 2}, in)
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-6 {
			t.Fatalf("poly window distorted at %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestPolySmootherRemovesNoise(t *testing.T) {
	r := xrand.New(3)
	base := make([]float64, 12)
	noisy := make([]float64, 12)
	for i := range base {
		x := float64(i)
		base[i] = 100 + 10*x
		noisy[i] = base[i] + r.Norm(0, 8)
	}
	out := process(&PolySmoother{Degree: 1}, noisy)
	var rawErr, smoothErr float64
	for i := range base {
		rawErr += math.Abs(noisy[i] - base[i])
		smoothErr += math.Abs(out[i] - base[i])
	}
	if smoothErr >= rawErr {
		t.Fatalf("smoothing did not reduce noise: %v >= %v", smoothErr, rawErr)
	}
}

func TestPolySmootherDegreeTooHigh(t *testing.T) {
	in := []float64{5, 6}
	out := process(&PolySmoother{Degree: 5}, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("over-parameterized fit should pass through, got %v", out)
		}
	}
}

func TestPolySmootherConstantWindow(t *testing.T) {
	in := []float64{4, 4, 4, 4, 4, 4}
	out := process(&PolySmoother{Degree: 2}, in)
	for i := range in {
		if math.Abs(out[i]-4) > 1e-9 {
			t.Fatalf("constant window distorted: %v", out)
		}
	}
}

func TestPolySmootherNegativeDegree(t *testing.T) {
	in := []float64{1, 5, 9}
	out := process(&PolySmoother{Degree: -1}, in)
	// Degree clamps to 0: the mean.
	want := 5.0
	for i := range out {
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("degree-0 fit = %v, want all %v", out, want)
		}
	}
}

func TestPolySmootherLengthPreserved(t *testing.T) {
	err := quick.Check(func(raw []float64, degRaw uint8) bool {
		in := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			in = append(in, v)
		}
		deg := int(degRaw % 4)
		out := process(&PolySmoother{Degree: deg}, in)
		return len(out) == len(in)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalizer(t *testing.T) {
	n, err := NewNormalizer(2000)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Norm(1000); got != 0.5 {
		t.Fatalf("Norm = %v", got)
	}
	if got := n.Denorm(0.5); got != 1000 {
		t.Fatalf("Denorm = %v", got)
	}
	if got := n.Denorm(-0.3); got != 0 {
		t.Fatalf("negative denorm should clamp to 0, got %v", got)
	}
	if _, err := NewNormalizer(0); err == nil {
		t.Fatal("zero capacity should be rejected")
	}
	if _, err := NewNormalizer(-5); err == nil {
		t.Fatal("negative capacity should be rejected")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	n, _ := NewNormalizer(1234)
	err := quick.Check(func(raw float64) bool {
		v := math.Abs(math.Mod(raw, 1e6))
		return math.Abs(n.Denorm(n.Norm(v))-v) < 1e-9*(1+v)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
