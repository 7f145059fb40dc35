// Package predict implements the paper's seven load-prediction
// algorithms (Section IV): six classical time-series predictors —
// average, moving average, last value, exponential smoothing with
// three smoothing factors, and sliding-window median — plus the novel
// neural-network-based predictor, together with the evaluation harness
// that computes the paper's prediction-error metric (Fig. 5) and the
// per-call timing distributions (Fig. 6).
//
// All predictors share one protocol: Observe feeds the actual load of
// the current time step, Predict returns the forecast for the next
// step. Predictors are single-signal; the per-sub-zone structure of
// Section IV-B is handled by ZoneSet, which runs one predictor per
// sub-zone and sums the outputs.
package predict

import (
	"sort"
)

// Predictor forecasts the next sample of a load signal.
type Predictor interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Observe feeds the actual value of the current time step.
	Observe(v float64)
	// Predict returns the forecast for the next time step. Before any
	// observation it returns 0.
	Predict() float64
}

// Factory builds a fresh predictor instance; evaluation and the
// provisioning simulation instantiate one per signal (per sub-zone or
// per server group).
type Factory func() Predictor

// LastValue predicts that the next sample equals the current one.
type LastValue struct {
	last float64
}

// NewLastValue returns a last-value predictor factory.
func NewLastValue() Factory { return func() Predictor { return &LastValue{} } }

// Name implements Predictor.
func (*LastValue) Name() string { return "Last value" }

// Observe implements Predictor.
func (p *LastValue) Observe(v float64) { p.last = v }

// Predict implements Predictor.
func (p *LastValue) Predict() float64 { return p.last }

// Average predicts the cumulative mean of all observed samples.
type Average struct {
	sum float64
	n   int
}

// NewAverage returns an all-history average predictor factory.
func NewAverage() Factory { return func() Predictor { return &Average{} } }

// Name implements Predictor.
func (*Average) Name() string { return "Average" }

// Observe implements Predictor.
func (p *Average) Observe(v float64) { p.sum += v; p.n++ }

// Predict implements Predictor.
func (p *Average) Predict() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

// MovingAverage predicts the mean of the last Window samples.
type MovingAverage struct {
	window int
	buf    []float64
	next   int
	filled int
	sum    float64
}

// NewMovingAverage returns a moving-average factory with the given
// window (samples).
func NewMovingAverage(window int) Factory {
	if window < 1 {
		window = 1
	}
	return func() Predictor {
		return &MovingAverage{window: window, buf: make([]float64, window)}
	}
}

// Name implements Predictor.
func (*MovingAverage) Name() string { return "Moving average" }

// Observe implements Predictor.
func (p *MovingAverage) Observe(v float64) {
	if p.filled == p.window {
		p.sum -= p.buf[p.next]
	} else {
		p.filled++
	}
	p.buf[p.next] = v
	p.sum += v
	p.next = (p.next + 1) % p.window
}

// Predict implements Predictor.
func (p *MovingAverage) Predict() float64 {
	if p.filled == 0 {
		return 0
	}
	return p.sum / float64(p.filled)
}

// ExpSmoothing predicts with single exponential smoothing:
// s = alpha*x + (1-alpha)*s.
type ExpSmoothing struct {
	alpha float64
	s     float64
	init  bool
	label string
}

// NewExpSmoothing returns an exponential-smoothing factory; the paper
// evaluates alpha = 0.25, 0.50, and 0.75.
func NewExpSmoothing(alpha float64, label string) Factory {
	return func() Predictor {
		return &ExpSmoothing{alpha: alpha, label: label}
	}
}

// Name implements Predictor.
func (p *ExpSmoothing) Name() string { return p.label }

// Observe implements Predictor.
func (p *ExpSmoothing) Observe(v float64) {
	if !p.init {
		p.s = v
		p.init = true
		return
	}
	p.s = p.alpha*v + (1-p.alpha)*p.s
}

// Predict implements Predictor.
func (p *ExpSmoothing) Predict() float64 { return p.s }

// Holt predicts with double (trend-corrected) exponential smoothing:
// level and trend are tracked separately, and the forecast is
// level + trend. Unlike single smoothing it does not lag ramps, which
// is exactly what diurnal MMOG load consists of — included as an
// additional baseline beyond the paper's seven algorithms.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	seen         int
}

// NewHolt returns a Holt double-smoothing factory; alpha smooths the
// level, beta the trend.
func NewHolt(alpha, beta float64) Factory {
	return func() Predictor {
		return &Holt{alpha: alpha, beta: beta}
	}
}

// Name implements Predictor.
func (*Holt) Name() string { return "Holt" }

// Observe implements Predictor.
func (p *Holt) Observe(v float64) {
	switch p.seen {
	case 0:
		p.level = v
	case 1:
		p.trend = v - p.level
		p.level = v
	default:
		prevLevel := p.level
		p.level = p.alpha*v + (1-p.alpha)*(p.level+p.trend)
		p.trend = p.beta*(p.level-prevLevel) + (1-p.beta)*p.trend
	}
	p.seen++
}

// Predict implements Predictor.
func (p *Holt) Predict() float64 {
	if p.seen == 0 {
		return 0
	}
	f := p.level + p.trend
	if f < 0 {
		f = 0
	}
	return f
}

// SlidingWindowMedian predicts the median of the last Window samples.
type SlidingWindowMedian struct {
	window  int
	buf     []float64
	scratch []float64
	next    int
	filled  int
}

// NewSlidingWindowMedian returns a sliding-window-median factory.
func NewSlidingWindowMedian(window int) Factory {
	if window < 1 {
		window = 1
	}
	return func() Predictor {
		return &SlidingWindowMedian{
			window:  window,
			buf:     make([]float64, window),
			scratch: make([]float64, 0, window),
		}
	}
}

// Name implements Predictor.
func (*SlidingWindowMedian) Name() string { return "Sliding window median" }

// Observe implements Predictor.
func (p *SlidingWindowMedian) Observe(v float64) {
	p.buf[p.next] = v
	p.next = (p.next + 1) % p.window
	if p.filled < p.window {
		p.filled++
	}
}

// Predict implements Predictor.
func (p *SlidingWindowMedian) Predict() float64 {
	if p.filled == 0 {
		return 0
	}
	p.scratch = p.scratch[:p.filled]
	if p.filled == p.window {
		copy(p.scratch, p.buf)
	} else {
		copy(p.scratch, p.buf[:p.filled])
	}
	sort.Float64s(p.scratch)
	m := p.filled / 2
	if p.filled%2 == 1 {
		return p.scratch[m]
	}
	return (p.scratch[m-1] + p.scratch[m]) / 2
}

// DefaultWindow is the window used by the windowed baselines, matching
// the neural predictor's input width.
const DefaultWindow = 6

// ByName returns the baseline predictor the command-line tools name
// lastvalue, average, movingavg, median or expsmoothing (α = 0.5), or
// nil for any other name. Each tool builds its neural predictor itself.
func ByName(name string) Factory {
	switch name {
	case "lastvalue":
		return NewLastValue()
	case "average":
		return NewAverage()
	case "movingavg":
		return NewMovingAverage(DefaultWindow)
	case "median":
		return NewSlidingWindowMedian(DefaultWindow)
	case "expsmoothing":
		return NewExpSmoothing(0.5, "Exp. smoothing 50%")
	}
	return nil
}

// Baselines returns the paper's six non-neural predictors in the order
// of Table V / Fig. 5.
func Baselines() []Factory {
	return []Factory{
		NewAverage(),
		NewMovingAverage(DefaultWindow),
		NewLastValue(),
		NewExpSmoothing(0.25, "Exp. smoothing 25%"),
		NewExpSmoothing(0.50, "Exp. smoothing 50%"),
		NewExpSmoothing(0.75, "Exp. smoothing 75%"),
		NewSlidingWindowMedian(DefaultWindow),
	}
}
