// State support: every predictor in this package is Stateful, so the
// online provisioning operator (internal/operator) and the batch engine
// (internal/core) can checkpoint their forecast state and resume after
// a crash on the uninterrupted trajectory.
//
// The contract is exact: for any predictor p and fresh q built by the
// same factory, q.State reading what p.State wrote, followed by
// identical Observe calls on both, must keep q.Predict() bit-identical
// to p.Predict() forever (TestSnapshotRoundTripEquivalence pins this
// per type). A payload carries a kind tag and the configuration
// constants that the factory fixes, and a reader checks both, so a
// checkpoint can never be loaded into a differently configured
// predictor silently. Each State reads into a copy of the predictor
// that it commits only once its whole payload has been read, so a
// refused payload leaves the predictor as it was.
package predict

import (
	"fmt"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/neural"
)

// Stateful is a Predictor whose full forecasting state can be
// captured and re-established. All predictors in this package
// implement it.
type Stateful interface {
	Predictor
	// State writes the predictor's complete state to a checkpoint
	// writer, or re-establishes it from a reader over a payload that
	// a predictor built by the same factory wrote. A reader refuses
	// kind or configuration mismatches and corrupt data.
	State(c *checkpoint.Codec)
}

// kind tags keep a snapshot from being restored into the wrong type.
const (
	kindLastValue = "lastvalue"
	kindAverage   = "average"
	kindMovingAvg = "movingavg"
	kindExpSmooth = "expsmoothing"
	kindHolt      = "holt"
	kindMedian    = "median"
	kindAR        = "ar"
	kindSeasonal  = "seasonalnaive"
	kindNeural    = "neural"
)

// State carries the zone count and each zone's state, each in a
// section of its own. It aborts the codec if a predictor in the set is
// not Stateful (all predictors built by this package are). A refused
// payload may leave the set partially restored; it must be discarded.
func (z *ZoneSet) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, len(z.ps), "predict: snapshot zones")
	for i, p := range z.ps {
		s, ok := p.(Stateful)
		if !ok {
			c.Abort(fmt.Errorf("predict: zone %d predictor %T is not snapshotable", i, p))
			return
		}
		c.Section(s.State)
	}
}

// State implements Stateful.
func (p *LastValue) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindLastValue, "snapshot kind")
	q := *p
	c.F64(&q.last)
	if c.Commit() {
		*p = q
	}
}

// State implements Stateful.
func (p *Average) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindAverage, "snapshot kind")
	q := *p
	c.F64(&q.sum)
	c.Int(&q.n)
	if c.Commit() {
		*p = q
	}
}

// State implements Stateful.
func (p *MovingAverage) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindMovingAvg, "snapshot kind")
	checkpoint.Expect(c, p.window, "snapshot window")
	q := *p
	c.F64s(&q.buf)
	c.Int(&q.next)
	c.Int(&q.filled)
	c.F64(&q.sum)
	if len(q.buf) != q.window || q.next < 0 || q.next >= q.window || q.filled < 0 || q.filled > q.window {
		c.Failf("inconsistent moving-average snapshot")
	}
	if c.Commit() {
		copy(p.buf, q.buf)
		p.next, p.filled, p.sum = q.next, q.filled, q.sum
	}
}

// State implements Stateful.
func (p *ExpSmoothing) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindExpSmooth, "snapshot kind")
	checkpoint.Expect(c, p.alpha, "snapshot alpha")
	q := *p
	c.F64(&q.s)
	c.Bool(&q.init)
	if c.Commit() {
		*p = q
	}
}

// State implements Stateful.
func (p *Holt) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindHolt, "snapshot kind")
	checkpoint.Expect(c, p.alpha, "snapshot alpha")
	checkpoint.Expect(c, p.beta, "snapshot beta")
	q := *p
	c.F64(&q.level)
	c.F64(&q.trend)
	c.Int(&q.seen)
	if c.Commit() {
		*p = q
	}
}

// State implements Stateful.
func (p *SlidingWindowMedian) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindMedian, "snapshot kind")
	checkpoint.Expect(c, p.window, "snapshot window")
	q := *p
	c.F64s(&q.buf)
	c.Int(&q.next)
	c.Int(&q.filled)
	if len(q.buf) != q.window || q.next < 0 || q.next >= q.window || q.filled < 0 || q.filled > q.window {
		c.Failf("inconsistent median snapshot")
	}
	if c.Commit() {
		copy(p.buf, q.buf)
		p.next, p.filled = q.next, q.filled
	}
}

// State implements Stateful.
func (p *AR) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindAR, "snapshot kind")
	checkpoint.Expect(c, p.order, "AR snapshot order")
	checkpoint.Expect(c, p.refitInterval, "AR snapshot refit interval")
	checkpoint.Expect(c, p.maxHistory, "AR snapshot history bound")
	q := *p
	c.F64s(&q.history)
	c.F64s(&q.coeffs)
	c.F64(&q.mean)
	c.Int(&q.sinceRefit)
	c.Bool(&q.fitted)
	if len(q.history) > q.maxHistory || (q.fitted && len(q.coeffs) != q.order) {
		c.Failf("inconsistent AR snapshot")
	}
	if c.Commit() {
		// Copy into the preallocated buffers rather than aliasing the
		// reader's slices, so a restored predictor keeps its
		// allocation-free steady state.
		p.history = append(p.history[:0], q.history...)
		clear(p.coeffs)
		copy(p.coeffs, q.coeffs)
		p.mean, p.sinceRefit, p.fitted = q.mean, q.sinceRefit, q.fitted
	}
}

// State implements Stateful.
func (p *SeasonalNaive) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindSeasonal, "snapshot kind")
	checkpoint.Expect(c, p.period, "snapshot period")
	q := *p
	c.F64s(&q.buf)
	c.Int(&q.n)
	if len(q.buf) != q.period || q.n < 0 {
		c.Failf("inconsistent seasonal snapshot")
	}
	if c.Commit() {
		copy(p.buf, q.buf)
		p.n = q.n
	}
}

// State implements Stateful. Beyond the sliding window it carries the
// network weights and momentum buffers in a section of their own, so a
// restored predictor's online training continues bit-identically.
func (p *Neural) State(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindNeural, "snapshot kind")
	checkpoint.Expect(c, neural.Inputs, "neural snapshot window")
	checkpoint.Expect(c, p.cfg.Capacity, "neural snapshot capacity")
	checkpoint.Expect(c, p.cfg.OutputScale, "neural snapshot output scale")
	checkpoint.Expect(c, false, "neural snapshot direct output") // always residual
	const w = neural.Inputs
	window, seen, prevIn, prevLast := p.window[:min(p.seen, w)], p.seen, p.prevIn[:], p.prevLast
	havePre := seen >= w // the window is full and smoothed
	c.F64s(&window)
	c.Int(&seen)
	c.F64s(&prevIn)
	c.F64(&prevLast)
	c.Bool(&havePre)
	// Observe fills the window one sample per observation and smooths
	// it once it is full; any other combination would make Predict read
	// before the window's start.
	if seen < 0 || len(window) != min(seen, w) || havePre != (len(window) == w) || len(prevIn) != w {
		c.Failf("inconsistent neural snapshot")
	}
	// A reader reads the network into this copy, which only the
	// predictor's own commit applies.
	net := p.net
	c.Section(net.State)
	if c.Commit() {
		p.net = net
		copy(p.window[:], window)
		p.seen = seen
		copy(p.prevIn[:], prevIn)
		p.prevLast = prevLast
	}
}
