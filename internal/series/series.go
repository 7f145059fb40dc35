// Package series provides the regular-interval time-series type the
// trace and simulation packages are built on. A Series is a sequence
// of float64 samples taken at a fixed tick interval (the paper samples
// every two minutes), plus helpers for resampling, windowing, and
// aggregating many series (e.g. all server groups of a region) into
// one.
package series

import (
	"fmt"
	"math"
	"time"
)

// DefaultTick is the paper's sampling interval.
const DefaultTick = 2 * time.Minute

// DefaultTicksPerDay is the number of DefaultTick samples in a day.
const DefaultTicksPerDay = 720

// Series is a fixed-interval time series. The zero value is an empty
// series with a zero tick; construct with New for a meaningful tick.
type Series struct {
	Tick   time.Duration
	Start  time.Time
	Values []float64
}

// New returns an empty series with the given tick and start time.
func New(tick time.Duration, start time.Time) *Series {
	return &Series{Tick: tick, Start: start}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the i-th sample; out-of-range indices return NaN.
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[i]
}

// TimeAt returns the wall-clock time of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Tick)
}

// Append adds samples at the end.
func (s *Series) Append(v ...float64) { s.Values = append(s.Values, v...) }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	return &Series{Tick: s.Tick, Start: s.Start, Values: append([]float64(nil), s.Values...)}
}

// Resample aggregates consecutive groups of factor samples using the
// mean, e.g. 2-minute samples to 2-hour averages (factor 60) as in
// Fig. 2. A trailing partial group is averaged over its actual length.
func (s *Series) Resample(factor int) *Series {
	if factor <= 1 {
		return s.Clone()
	}
	out := New(s.Tick*time.Duration(factor), s.Start)
	for i := 0; i < len(s.Values); i += factor {
		end := i + factor
		if end > len(s.Values) {
			end = len(s.Values)
		}
		var sum float64
		for _, v := range s.Values[i:end] {
			sum += v
		}
		out.Values = append(out.Values, sum/float64(end-i))
	}
	return out
}

// AddSeries adds other's samples to s element-wise in place; the two
// series must have the same length.
func (s *Series) AddSeries(other *Series) error {
	if len(other.Values) != len(s.Values) {
		return fmt.Errorf("series: length mismatch %d != %d", len(s.Values), len(other.Values))
	}
	for i, v := range other.Values {
		s.Values[i] += v
	}
	return nil
}

// SumAcross element-wise sums many equal-length series into a new one
// (e.g. all server groups of a region into the regional load).
func SumAcross(all []*Series) (*Series, error) {
	if len(all) == 0 {
		return nil, fmt.Errorf("series: SumAcross with no series")
	}
	out := all[0].Clone()
	for _, s := range all[1:] {
		if err := out.AddSeries(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
