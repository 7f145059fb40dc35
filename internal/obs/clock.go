package obs

import (
	"sync"
	"time"
)

// Clock abstracts time.Now for micro-timing, so prediction-cost tables
// and latency histograms are deterministic under test: production code
// uses System; tests inject a ManualClock.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// System is the wall clock (with Go's monotonic reading, so Sub is
// monotonic).
var System Clock = systemClock{}

// ManualClock is a deterministic test clock: every Now call returns
// the current instant and then advances it by Step, so two successive
// Now calls bracket exactly one Step. Safe for concurrent use.
type ManualClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

// NewManualClock starts a manual clock at start, advancing step per
// Now call.
func NewManualClock(start time.Time, step time.Duration) *ManualClock {
	return &ManualClock{now: start, step: step}
}

// Now returns the clock's instant and advances it by the step.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}
