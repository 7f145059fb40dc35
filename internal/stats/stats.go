// Package stats implements the descriptive statistics the paper's
// workload analysis relies on (Section III): order statistics and
// quartiles, interquartile range, autocorrelation, empirical CDFs, and
// small summary helpers used across the experiment runners.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty data")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	// Kahan summation: the provisioning metrics sum tens of thousands
	// of per-tick terms and plain accumulation visibly drifts.
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Min returns the minimum, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the common default).
// It returns NaN for empty input and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range Q3 - Q1 (Section III-C uses it
// to characterize the load variability between server groups).
func IQR(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
}

// FiveNum is a five-number summary plus the mean, as used by the
// predictor-timing figure (Fig. 6).
type FiveNum struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// Summary returns the five-number summary of xs.
func Summary(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return FiveNum{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
	}, nil
}

// ACF returns the autocorrelation function of xs for lags 0..maxLag
// inclusive (Fig. 3 bottom uses it to expose the 24-hour diurnal
// cycle). The result has length maxLag+1 with ACF[0] == 1 whenever the
// series has non-zero variance. For constant series it returns zeros
// beyond lag 0.
func ACF(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	m := Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	if denom == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag] = num / denom
	}
	return out
}

// LinearFit returns the least-squares line y = slope*x + intercept
// through the points, plus the coefficient of determination R². It
// returns NaNs for fewer than two points or zero x-variance.
func LinearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return math.NaN(), math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// ArgMax returns the index of the maximum of xs in [from, to) and the
// value itself. It returns -1 for an empty range.
func ArgMax(xs []float64, from, to int) (int, float64) {
	if from < 0 {
		from = 0
	}
	if to > len(xs) {
		to = len(xs)
	}
	if from >= to {
		return -1, math.NaN()
	}
	idx, best := from, xs[from]
	for i := from + 1; i < to; i++ {
		if xs[i] > best {
			idx, best = i, xs[i]
		}
	}
	return idx, best
}

// ArgMin is the mirror of ArgMax.
func ArgMin(xs []float64, from, to int) (int, float64) {
	if from < 0 {
		from = 0
	}
	if to > len(xs) {
		to = len(xs)
	}
	if from >= to {
		return -1, math.NaN()
	}
	idx, best := from, xs[from]
	for i := from + 1; i < to; i++ {
		if xs[i] < best {
			idx, best = i, xs[i]
		}
	}
	return idx, best
}
