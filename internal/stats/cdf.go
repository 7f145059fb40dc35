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

// Points samples the CDF at n equidistant values between the sample
// min and max (inclusive), returning (x, P(X<=x)) pairs for plotting —
// the representation used by the Fig. 4 report.
func (c *CDF) Points(n int) []CDFPoint {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if n == 1 || lo == hi {
		return []CDFPoint{{X: hi, P: 1}}
	}
	out := make([]CDFPoint, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		out[i] = CDFPoint{X: x, P: c.At(x)}
	}
	return out
}

// CDFPoint is one (value, cumulative probability) plotting point.
type CDFPoint struct {
	X float64
	P float64
}

// Histogram bins the sample into nBins equal-width bins over
// [min, max] and returns the per-bin counts. Useful for quick looks at
// emulator output during tests.
func Histogram(xs []float64, nBins int) (edges []float64, counts []int) {
	if len(xs) == 0 || nBins <= 0 {
		return nil, nil
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		return []float64{lo, hi}, []int{len(xs)}
	}
	width := (hi - lo) / float64(nBins)
	edges = make([]float64, nBins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, nBins)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= nBins {
			b = nBins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
