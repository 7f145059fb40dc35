package stats

import "sort"

// CDF is an empirical cumulative distribution function over a sample.
// The zero value is empty; build one with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns P(X <= x) as a fraction in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	// Advance past duplicates equal to x so the CDF is right-continuous.
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Percentile returns the value at fraction q in [0, 1] (inverse CDF).
func (c *CDF) Percentile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return quantileSorted(c.sorted, q)
}
