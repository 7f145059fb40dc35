package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestSumKahan(t *testing.T) {
	// Sum many tiny values against one large one; naive summation
	// loses them, Kahan keeps them.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1.0)
	}
	if got := Sum(xs); got != 1e16+10000 {
		t.Fatalf("Sum = %v, want %v", got, 1e16+10000)
	}
}

func TestMeanBasics(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2}
	if got := Min(xs); got != -9 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	// Out-of-range q values are clamped.
	if got := Quantile(xs, -3); got != 10 {
		t.Fatalf("q(-3) = %v", got)
	}
	if got := Quantile(xs, 2); got != 40 {
		t.Fatalf("q(2) = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	Quantile(xs, 0.5)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestIQRKnown(t *testing.T) {
	// 1..9: Q1 = 3, Q3 = 7 under type-7 interpolation.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := IQR(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("IQR = %v, want 4", got)
	}
}

func TestSummary(t *testing.T) {
	s, err := Summary([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Mean != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if _, err := Summary(nil); err != ErrEmpty {
		t.Fatalf("Summary(nil) err = %v, want ErrEmpty", err)
	}
}

func TestACFLagZeroIsOne(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6, 2, 8}
	acf := ACF(xs, 3)
	if !almostEqual(acf[0], 1, 1e-12) {
		t.Fatalf("ACF[0] = %v", acf[0])
	}
	if len(acf) != 4 {
		t.Fatalf("len(ACF) = %d, want 4", len(acf))
	}
}

func TestACFPeriodicSignal(t *testing.T) {
	// A sine with period 24 must have an ACF peak at lag 24 and a
	// trough at lag 12 — the diurnal structure Fig. 3 looks for.
	const period = 24
	n := period * 20
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / period)
	}
	acf := ACF(xs, period+2)
	if acf[period] < 0.9 {
		t.Errorf("ACF at full period = %v, want > 0.9", acf[period])
	}
	if acf[period/2] > -0.9 {
		t.Errorf("ACF at half period = %v, want < -0.9", acf[period/2])
	}
}

func TestACFConstantSeries(t *testing.T) {
	acf := ACF([]float64{5, 5, 5, 5}, 2)
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Fatalf("constant-series ACF = %v", acf)
	}
}

func TestACFClampsLag(t *testing.T) {
	acf := ACF([]float64{1, 2, 3}, 10)
	if len(acf) != 3 {
		t.Fatalf("len = %d, want clamp to n-1+1 = 3", len(acf))
	}
}

func TestACFBounded(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		// Build a pseudo-random series from the seed.
		xs := make([]float64, 64)
		s := uint64(seed)
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			xs[i] = float64(s%1000) / 10
		}
		for _, v := range ACF(xs, 20) {
			if v > 1+1e-9 || v < -1-1e-9 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	xs := []float64{3, 9, 2, 9, 1}
	if i, v := ArgMax(xs, 0, len(xs)); i != 1 || v != 9 {
		t.Fatalf("ArgMax = (%d, %v)", i, v)
	}
	if i, v := ArgMin(xs, 0, len(xs)); i != 4 || v != 1 {
		t.Fatalf("ArgMin = (%d, %v)", i, v)
	}
	if i, _ := ArgMax(xs, 3, 3); i != -1 {
		t.Fatal("empty range should return -1")
	}
	if i, v := ArgMax(xs, -5, 99); i != 1 || v != 9 {
		t.Fatalf("ArgMax with clamped range = (%d, %v)", i, v)
	}
}

func TestMedianIsBetweenMinAndMax(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIQRNonNegative(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return IQR(xs) >= 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept, r2 := LinearFit(xs, ys)
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 1, 1e-12) || !almostEqual(r2, 1, 1e-12) {
		t.Fatalf("fit = (%v, %v, %v)", slope, intercept, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if s, _, _ := LinearFit([]float64{1}, []float64{2}); !math.IsNaN(s) {
		t.Fatal("single point should give NaN")
	}
	if s, _, _ := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(s) {
		t.Fatal("zero x-variance should give NaN")
	}
	if s, _, _ := LinearFit([]float64{1, 2}, []float64{3}); !math.IsNaN(s) {
		t.Fatal("length mismatch should give NaN")
	}
	// Constant y: perfect fit with zero slope.
	s, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if s != 0 || b != 4 || r2 != 1 {
		t.Fatalf("constant-y fit = (%v, %v, %v)", s, b, r2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	// R^2 must drop below 1 with noise but the slope should be close.
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	state := uint64(17)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		noise := float64(state%100)/50 - 1
		xs[i] = float64(i)
		ys[i] = 0.5*float64(i) + 2 + noise
	}
	slope, _, r2 := LinearFit(xs, ys)
	if math.Abs(slope-0.5) > 0.05 {
		t.Fatalf("noisy slope = %v", slope)
	}
	if r2 >= 1 || r2 < 0.9 {
		t.Fatalf("noisy R^2 = %v", r2)
	}
}
