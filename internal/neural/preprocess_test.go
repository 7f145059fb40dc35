package neural

import (
	"math"
	"testing"
	"testing/quick"

	"mmogdc/internal/xrand"
)

func TestIdentity(t *testing.T) {
	// A negative degree passes the window through.
	in := [Inputs]float64{1, -2, 3, 0.5, 8, -13}
	var out [Inputs]float64
	Smooth(&out, &in, -1)
	if out != in {
		t.Fatalf("identity changed the window: %v", out)
	}
}

func TestPolySmootherReproducesPolynomial(t *testing.T) {
	// A window that already is a degree-2 polynomial must pass through
	// (numerically) unchanged.
	var in, out [Inputs]float64
	for i := range in {
		x := float64(i)
		in[i] = 3 + 2*x - 0.5*x*x
	}
	Smooth(&out, &in, 2)
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-6 {
			t.Fatalf("poly window distorted at %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestPolySmootherRemovesNoise(t *testing.T) {
	r := xrand.New(3)
	var base, noisy, out [Inputs]float64
	var rawErr, smoothErr float64
	for w := 0; w < 100; w++ {
		for i := range base {
			x := float64(i)
			base[i] = 100 + 10*x
			noisy[i] = base[i] + r.Norm(0, 8)
		}
		Smooth(&out, &noisy, 1)
		for i := range base {
			rawErr += math.Abs(noisy[i] - base[i])
			smoothErr += math.Abs(out[i] - base[i])
		}
	}
	if smoothErr >= rawErr {
		t.Fatalf("smoothing did not reduce noise: %v >= %v", smoothErr, rawErr)
	}
}

func TestPolySmootherDegreeTooHigh(t *testing.T) {
	in := [Inputs]float64{5, 6, 4, 9, 1, 7}
	for _, deg := range []int{Inputs, Inputs + 1, 100} {
		var out [Inputs]float64
		Smooth(&out, &in, deg)
		if out != in {
			t.Fatalf("degree %d: over-parameterized fit should pass through, got %v", deg, out)
		}
	}
}

func TestPolySmootherConstantWindow(t *testing.T) {
	in := [Inputs]float64{4, 4, 4, 4, 4, 4}
	var out [Inputs]float64
	Smooth(&out, &in, 2)
	for i := range in {
		if math.Abs(out[i]-4) > 1e-9 {
			t.Fatalf("constant window distorted: %v", out)
		}
	}
}

// BenchmarkSmooth times one degree-2 smooth of a six-sample window, the
// paper predictor's preprocessing of every observation.
func BenchmarkSmooth(b *testing.B) {
	in := [Inputs]float64{0.1, 0.25, 0.2, 0.4, 0.35, 0.6}
	var out [Inputs]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Smooth(&out, &in, 2)
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
