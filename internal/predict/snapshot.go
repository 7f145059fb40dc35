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

// openSnapshot validates the kind tag shared by every predictor
// snapshot and returns the decoder positioned after it.
func openSnapshot(data []byte, kind string) (*checkpoint.Dec, error) {
	d := checkpoint.NewDec(data)
	if got := d.Str(); got != kind {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("predict: %w", err)
		}
		return nil, fmt.Errorf("predict: snapshot kind %q, want %q", got, kind)
	}
	return d, nil
}

// closeSnapshot finishes decoding, turning leftover bytes or underruns
// into an error.
func closeSnapshot(d *checkpoint.Dec) error {
	if err := d.Close(); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	return nil
}

// Snapshot serializes every zone predictor's state. It fails if any
// predictor in the set is not Stateful (all predictors built by this
// package are).
func (z *ZoneSet) Snapshot() ([]byte, error) {
	e := checkpoint.NewEnc()
	e.Int(len(z.ps))
	for i, p := range z.ps {
		s, ok := p.(Stateful)
		if !ok {
			return nil, fmt.Errorf("predict: zone %d predictor %T is not snapshotable", i, p)
		}
		e.Bytes(s.Snapshot())
	}
	return e.Data(), nil
}

// Restore re-establishes a state captured by Snapshot on a ZoneSet
// built by the same factory with the same zone count. On error the
// set may be partially restored and must be discarded.
func (z *ZoneSet) Restore(data []byte) error {
	d := checkpoint.NewDec(data)
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if n != len(z.ps) {
		return fmt.Errorf("predict: snapshot has %d zones, set has %d", n, len(z.ps))
	}
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = d.Bytes()
	}
	if err := closeSnapshot(d); err != nil {
		return err
	}
	for i, p := range z.ps {
		s, ok := p.(Stateful)
		if !ok {
			return fmt.Errorf("predict: zone %d predictor %T is not snapshotable", i, p)
		}
		if err := s.Restore(blobs[i]); err != nil {
			return fmt.Errorf("zone %d: %w", i, err)
		}
	}
	return nil
}

// Snapshot implements Stateful.
func (p *LastValue) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindLastValue)
	e.F64(p.last)
	return e.Data()
}

// Restore implements Stateful.
func (p *LastValue) Restore(data []byte) error {
	d, err := openSnapshot(data, kindLastValue)
	if err != nil {
		return err
	}
	last := d.F64()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	p.last = last
	return nil
}

// Snapshot implements Stateful.
func (p *Average) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindAverage)
	e.F64(p.sum)
	e.Int(p.n)
	return e.Data()
}

// Restore implements Stateful.
func (p *Average) Restore(data []byte) error {
	d, err := openSnapshot(data, kindAverage)
	if err != nil {
		return err
	}
	sum, n := d.F64(), d.Int()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	p.sum, p.n = sum, n
	return nil
}

// Snapshot implements Stateful.
func (p *MovingAverage) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindMovingAvg)
	e.Int(p.window)
	e.F64s(p.buf)
	e.Int(p.next)
	e.Int(p.filled)
	e.F64(p.sum)
	return e.Data()
}

// Restore implements Stateful.
func (p *MovingAverage) Restore(data []byte) error {
	d, err := openSnapshot(data, kindMovingAvg)
	if err != nil {
		return err
	}
	window := d.Int()
	buf := d.F64s()
	next, filled := d.Int(), d.Int()
	sum := d.F64()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if window != p.window {
		return fmt.Errorf("predict: snapshot window %d, predictor %d", window, p.window)
	}
	if len(buf) != window || next < 0 || next >= window || filled < 0 || filled > window {
		return fmt.Errorf("predict: inconsistent moving-average snapshot")
	}
	copy(p.buf, buf)
	p.next, p.filled, p.sum = next, filled, sum
	return nil
}

// Snapshot implements Stateful.
func (p *ExpSmoothing) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindExpSmooth)
	e.F64(p.alpha)
	e.F64(p.s)
	e.Bool(p.init)
	return e.Data()
}

// Restore implements Stateful.
func (p *ExpSmoothing) Restore(data []byte) error {
	d, err := openSnapshot(data, kindExpSmooth)
	if err != nil {
		return err
	}
	alpha, s, init := d.F64(), d.F64(), d.Bool()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if alpha != p.alpha {
		return fmt.Errorf("predict: snapshot alpha %v, predictor %v", alpha, p.alpha)
	}
	p.s, p.init = s, init
	return nil
}

// Snapshot implements Stateful.
func (p *Holt) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindHolt)
	e.F64(p.alpha)
	e.F64(p.beta)
	e.F64(p.level)
	e.F64(p.trend)
	e.Int(p.seen)
	return e.Data()
}

// Restore implements Stateful.
func (p *Holt) Restore(data []byte) error {
	d, err := openSnapshot(data, kindHolt)
	if err != nil {
		return err
	}
	alpha, beta := d.F64(), d.F64()
	level, trend := d.F64(), d.F64()
	seen := d.Int()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if alpha != p.alpha || beta != p.beta {
		return fmt.Errorf("predict: snapshot smoothing (%v,%v), predictor (%v,%v)", alpha, beta, p.alpha, p.beta)
	}
	p.level, p.trend, p.seen = level, trend, seen
	return nil
}

// Snapshot implements Stateful.
func (p *SlidingWindowMedian) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindMedian)
	e.Int(p.window)
	e.F64s(p.buf)
	e.Int(p.next)
	e.Int(p.filled)
	return e.Data()
}

// Restore implements Stateful.
func (p *SlidingWindowMedian) Restore(data []byte) error {
	d, err := openSnapshot(data, kindMedian)
	if err != nil {
		return err
	}
	window := d.Int()
	buf := d.F64s()
	next, filled := d.Int(), d.Int()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if window != p.window {
		return fmt.Errorf("predict: snapshot window %d, predictor %d", window, p.window)
	}
	if len(buf) != window || next < 0 || next >= window || filled < 0 || filled > window {
		return fmt.Errorf("predict: inconsistent median snapshot")
	}
	copy(p.buf, buf)
	p.next, p.filled = next, filled
	return nil
}

// Snapshot implements Stateful.
func (p *AR) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindAR)
	e.Int(p.order)
	e.Int(p.refitInterval)
	e.Int(p.maxHistory)
	e.F64s(p.history)
	e.F64s(p.coeffs)
	e.F64(p.mean)
	e.Int(p.sinceRefit)
	e.Bool(p.fitted)
	return e.Data()
}

// Restore implements Stateful.
func (p *AR) Restore(data []byte) error {
	d, err := openSnapshot(data, kindAR)
	if err != nil {
		return err
	}
	order, refit, maxHist := d.Int(), d.Int(), d.Int()
	history := d.F64s()
	coeffs := d.F64s()
	mean := d.F64()
	sinceRefit := d.Int()
	fitted := d.Bool()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if order != p.order || refit != p.refitInterval || maxHist != p.maxHistory {
		return fmt.Errorf("predict: AR snapshot config (%d,%d,%d), predictor (%d,%d,%d)",
			order, refit, maxHist, p.order, p.refitInterval, p.maxHistory)
	}
	if len(history) > maxHist || (fitted && len(coeffs) != order) {
		return fmt.Errorf("predict: inconsistent AR snapshot")
	}
	// Copy into the preallocated buffers rather than aliasing the
	// decoder's slices, so a restored predictor keeps its
	// allocation-free steady state.
	p.history = append(p.history[:0], history...)
	for i := range p.coeffs {
		p.coeffs[i] = 0
	}
	copy(p.coeffs, coeffs)
	p.mean = mean
	p.sinceRefit = sinceRefit
	p.fitted = fitted
	return nil
}

// Snapshot implements Stateful.
func (p *SeasonalNaive) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindSeasonal)
	e.Int(p.period)
	e.F64s(p.buf)
	e.Int(p.n)
	return e.Data()
}

// Restore implements Stateful.
func (p *SeasonalNaive) Restore(data []byte) error {
	d, err := openSnapshot(data, kindSeasonal)
	if err != nil {
		return err
	}
	period := d.Int()
	buf := d.F64s()
	n := d.Int()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if period != p.period {
		return fmt.Errorf("predict: snapshot period %d, predictor %d", period, p.period)
	}
	if len(buf) != period || n < 0 {
		return fmt.Errorf("predict: inconsistent seasonal snapshot")
	}
	copy(p.buf, buf)
	p.n = n
	return nil
}

// Snapshot implements Stateful. Beyond the sliding window it includes
// the network weights and momentum buffers, so a restored predictor's
// online training continues bit-identically.
func (p *Neural) Snapshot() []byte {
	e := checkpoint.NewEnc()
	e.Str(kindNeural)
	e.Int(p.cfg.Window)
	e.F64(p.cfg.Capacity)
	e.F64(p.cfg.OutputScale)
	e.Bool(false) // output-mode flag: always residual, and Restore refuses true
	e.F64s(p.window)
	e.Int(p.seen)
	e.F64s(p.prevIn)
	e.F64(p.prevLast)
	e.Bool(p.havePre)
	e.Bytes(p.net.Snapshot())
	return e.Data()
}

// Restore implements Stateful.
func (p *Neural) Restore(data []byte) error {
	d, err := openSnapshot(data, kindNeural)
	if err != nil {
		return err
	}
	window := d.Int()
	capacity, outputScale := d.F64(), d.F64()
	direct := d.Bool()
	win := d.F64s()
	seen := d.Int()
	prevIn := d.F64s()
	prevLast := d.F64()
	havePre := d.Bool()
	netData := d.Bytes()
	if err := closeSnapshot(d); err != nil {
		return err
	}
	if window != p.cfg.Window || capacity != p.cfg.Capacity ||
		outputScale != p.cfg.OutputScale || direct {
		return fmt.Errorf("predict: neural snapshot from a differently configured predictor")
	}
	// Observe fills the window one sample per observation and smooths
	// it once it is full; any other combination would make Predict read
	// before the window's start.
	if seen < 0 || len(win) != min(seen, window) || havePre != (len(win) == window) ||
		len(prevIn) != window {
		return fmt.Errorf("predict: inconsistent neural snapshot")
	}
	if err := p.net.Restore(netData); err != nil {
		return err
	}
	p.window = append(p.window[:0], win...)
	p.seen = seen
	copy(p.prevIn, prevIn)
	p.prevLast = prevLast
	p.havePre = havePre
	return nil
}
