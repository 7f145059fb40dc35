package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0},
		{1, 0.25},
		{1.5, 0.25},
		{2, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Percentile(0.5) != 0 {
		t.Fatal("empty CDF should return zeros")
	}
}

func TestCDFMonotone(t *testing.T) {
	err := quick.Check(func(raw []float64, probe1, probe2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		a, b := probe1, probe2
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDF(xs)
	xs[0] = 100
	if got := c.At(3); got != 1 {
		t.Fatalf("CDF changed after input mutation: At(3) = %v", got)
	}
}

func TestCDFPercentile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	if got := c.Percentile(0.5); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := c.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v", got)
	}
	if got := c.Percentile(1); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestCDFAgreesWithDirectCount(t *testing.T) {
	err := quick.Check(func(raw []float64, probe float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe) {
			return true
		}
		c := NewCDF(xs)
		count := 0
		for _, v := range xs {
			if v <= probe {
				count++
			}
		}
		want := float64(count) / float64(len(xs))
		return math.Abs(c.At(probe)-want) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFPercentileSorted(t *testing.T) {
	xs := []float64{9, 3, 7, 1, 5}
	c := NewCDF(xs)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := c.Percentile(q)
		if v < prev {
			t.Fatalf("Percentile not monotone at q=%v", q)
		}
		prev = v
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if c.Percentile(0) != sorted[0] || c.Percentile(1) != sorted[len(sorted)-1] {
		t.Fatal("percentile endpoints disagree with sorted sample")
	}
}
