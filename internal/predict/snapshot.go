// Snapshot/Restore support: every predictor in this package is
// Stateful, so the online provisioning operator (internal/operator)
// and the batch engine (internal/core) can checkpoint their forecast
// state and resume after a crash on the uninterrupted trajectory.
//
// The contract is exact: for any predictor p and fresh q built by the
// same factory, q.Restore(p.Snapshot()) followed by identical Observe
// calls on both must keep q.Predict() bit-identical to p.Predict()
// forever (TestSnapshotRoundTripEquivalence pins this per type).
// Snapshots carry a kind tag and the configuration constants that the
// factory fixes; Restore validates both, so a checkpoint can never be
// loaded into a differently configured predictor silently.
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
	// Snapshot serializes the predictor's complete state.
	Snapshot() []byte
	// Restore re-establishes a state captured by Snapshot on a
	// predictor built by the same factory. It fails on kind or
	// configuration mismatches and on corrupt data.
	Restore(data []byte) error
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

// stater is the one state method a predictor's Snapshot and Restore
// both run: it hands each field to the codec in layout order, kind tag
// and configuration first, checks what a reader read, and commits only
// a whole payload (checkpoint.Codec.Commit), so a refused snapshot
// leaves the predictor as it was.
type stater interface {
	state(c *checkpoint.Codec)
}

// snapshot runs a predictor's state method over a writer. It inlines
// into each Snapshot, where the call is to a concrete method, so the
// writer stays on the stack.
func snapshot(p stater) []byte {
	c := checkpoint.NewWriter()
	p.state(c)
	return c.Data()
}

// restore runs a predictor's state method over a reader of data.
func restore(p stater, data []byte) error {
	c := checkpoint.NewReader(data)
	p.state(c)
	if err := c.Close(); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	return nil
}

// Snapshot serializes every zone predictor's state. It fails if any
// predictor in the set is not Stateful (all predictors built by this
// package are).
func (z *ZoneSet) Snapshot() ([]byte, error) {
	c := checkpoint.NewWriter()
	if err := z.state(c); err != nil {
		return nil, err
	}
	return c.Data(), nil
}

// Restore re-establishes a state captured by Snapshot on a ZoneSet
// built by the same factory with the same zone count. On error the
// set may be partially restored and must be discarded.
func (z *ZoneSet) Restore(data []byte) error {
	c := checkpoint.NewReader(data)
	if err := z.state(c); err != nil {
		return err
	}
	return c.Close()
}

// state carries the zone count and each zone's snapshot, nested.
func (z *ZoneSet) state(c *checkpoint.Codec) error {
	checkpoint.Expect(c, len(z.ps), "predict: snapshot zones")
	for i, p := range z.ps {
		s, ok := p.(Stateful)
		if !ok {
			return fmt.Errorf("predict: zone %d predictor %T is not snapshotable", i, p)
		}
		c.Nested(s)
	}
	return nil
}

// Snapshot implements Stateful.
func (p *LastValue) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *LastValue) Restore(data []byte) error { return restore(p, data) }

func (p *LastValue) state(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindLastValue, "snapshot kind")
	q := *p
	c.F64(&q.last)
	if c.Commit() {
		*p = q
	}
}

// Snapshot implements Stateful.
func (p *Average) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *Average) Restore(data []byte) error { return restore(p, data) }

func (p *Average) state(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindAverage, "snapshot kind")
	q := *p
	c.F64(&q.sum)
	c.Int(&q.n)
	if c.Commit() {
		*p = q
	}
}

// Snapshot implements Stateful.
func (p *MovingAverage) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *MovingAverage) Restore(data []byte) error { return restore(p, data) }

func (p *MovingAverage) state(c *checkpoint.Codec) {
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

// Snapshot implements Stateful.
func (p *ExpSmoothing) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *ExpSmoothing) Restore(data []byte) error { return restore(p, data) }

func (p *ExpSmoothing) state(c *checkpoint.Codec) {
	checkpoint.Expect(c, kindExpSmooth, "snapshot kind")
	checkpoint.Expect(c, p.alpha, "snapshot alpha")
	q := *p
	c.F64(&q.s)
	c.Bool(&q.init)
	if c.Commit() {
		*p = q
	}
}

// Snapshot implements Stateful.
func (p *Holt) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *Holt) Restore(data []byte) error { return restore(p, data) }

func (p *Holt) state(c *checkpoint.Codec) {
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

// Snapshot implements Stateful.
func (p *SlidingWindowMedian) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *SlidingWindowMedian) Restore(data []byte) error { return restore(p, data) }

func (p *SlidingWindowMedian) state(c *checkpoint.Codec) {
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

// Snapshot implements Stateful.
func (p *AR) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *AR) Restore(data []byte) error { return restore(p, data) }

func (p *AR) state(c *checkpoint.Codec) {
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

// Snapshot implements Stateful.
func (p *SeasonalNaive) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *SeasonalNaive) Restore(data []byte) error { return restore(p, data) }

func (p *SeasonalNaive) state(c *checkpoint.Codec) {
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

// Snapshot implements Stateful. Beyond the sliding window it includes
// the network weights and momentum buffers, so a restored predictor's
// online training continues bit-identically.
func (p *Neural) Snapshot() []byte { return snapshot(p) }

// Restore implements Stateful.
func (p *Neural) Restore(data []byte) error { return restore(p, data) }

func (p *Neural) state(c *checkpoint.Codec) {
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
	var net []byte
	if !c.Reading() {
		net = p.net.Snapshot()
	}
	c.Bytes(&net)
	if !c.Commit() {
		return
	}
	if err := p.net.Restore(net); err != nil {
		c.Failf("%w", err)
		return
	}
	copy(p.window[:], window)
	p.seen = seen
	copy(p.prevIn[:], prevIn)
	p.prevLast = prevLast
}
