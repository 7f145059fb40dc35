package daemon

import (
	"sync"

	"mmogdc/internal/faults"
	"mmogdc/internal/xrand"
)

// grantInjector adapts the daemon's hot fault knobs to the matcher's
// GrantFaults interface: each center grant attempt is rejected
// outright with FaultRejectProb, or trimmed to a uniform 25–75% with
// FaultPartialProb, from a seeded stream with faults.Plan's draw
// (faults.DrawGrantFault). The knobs are read from the hot
// config on every attempt, so a reload changes the injection rate
// mid-run without touching the matcher.
type grantInjector struct {
	d   *Daemon
	mu  sync.Mutex
	rng *xrand.Rand
}

func newGrantInjector(d *Daemon, seed uint64) *grantInjector {
	return &grantInjector{d: d, rng: xrand.New(seed ^ 0x67a47da37a11fa17)}
}

// reseed restarts the stream (hot reload with a new FaultSeed).
func (gi *grantInjector) reseed(seed uint64) {
	gi.mu.Lock()
	gi.rng = xrand.New(seed ^ 0x67a47da37a11fa17)
	gi.mu.Unlock()
}

// GrantFault implements ecosystem.GrantFaults.
func (gi *grantInjector) GrantFault(center string) (reject bool, frac float64) {
	hot := gi.d.hot.Load()
	if hot.FaultRejectProb <= 0 && hot.FaultPartialProb <= 0 {
		return false, 1
	}
	gi.mu.Lock()
	defer gi.mu.Unlock()
	return faults.DrawGrantFault(gi.rng, hot.FaultRejectProb, hot.FaultPartialProb)
}
