package daemon

import (
	"sync"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/obs"
)

// breakerState is one region circuit's position. The zero value is
// closed (healthy: observations flow).
type breakerState int

const (
	breakerClosed breakerState = iota
	// breakerOpen refuses observations for games homed in the region;
	// after BreakerCooldown refusals the next request is admitted as a
	// probe.
	breakerOpen
	// breakerHalfOpen has one probe in flight. A grant from the region
	// closes the circuit; a rejection reopens it. Admission behaves
	// like open (a probe whose tick never touches the region must not
	// wedge the circuit), so a fresh probe is admitted every
	// BreakerCooldown refusals until the region answers.
	breakerHalfOpen
)

// regionBreaker is one failure domain's circuit.
type regionBreaker struct {
	state       breakerState
	consecFails int // consecutive observe passes the region rejected
	denied      int // refusals since the circuit opened (probe pacing)

	gState *obs.Gauge
	mTrips *obs.Counter
}

// breaker is the daemon's per-region circuit breaker. Grant health is
// attributed to failure domains by mapping each center to its
// geo.RegionOf region; a region that rejects BreakerThreshold
// consecutive acquisition passes trips its circuit, and observations
// for games homed there are refused with a typed 503
// (region_unavailable) instead of queueing work the region cannot
// serve. The clock is request-driven — state advances only on recorded
// observe outcomes and counted refusals — so a fixed request sequence
// walks a fixed state sequence.
type breaker struct {
	d *Daemon

	mu           sync.Mutex
	regions      map[string]*regionBreaker
	centerRegion map[string]string
}

func newBreaker(d *Daemon, centers []*datacenter.Center) *breaker {
	b := &breaker{
		d:            d,
		regions:      make(map[string]*regionBreaker),
		centerRegion: make(map[string]string, len(centers)),
	}
	for _, c := range centers {
		region := geo.RegionOf(c.Location)
		b.centerRegion[c.Name] = region
		b.region(region)
	}
	return b
}

// region returns (registering on first sight) the named region's
// circuit. Callers hold b.mu or are inside newBreaker.
func (b *breaker) region(name string) *regionBreaker {
	rb := b.regions[name]
	if rb == nil {
		r := b.d.obs.Registry
		lr := obs.L("region", name)
		rb = &regionBreaker{
			gState: r.Gauge("mmogdc_daemon_breaker_state",
				"Region circuit state: 0 closed, 1 half-open, 2 open.", lr),
			mTrips: r.Counter("mmogdc_daemon_breaker_trips_total",
				"Times the region's circuit opened.", lr),
		}
		b.regions[name] = rb
	}
	return rb
}

func (rb *regionBreaker) set(s breakerState) {
	rb.state = s
	switch s {
	case breakerClosed:
		rb.gState.Set(0)
	case breakerHalfOpen:
		rb.gState.Set(1)
	case breakerOpen:
		rb.gState.Set(2)
	}
}

// allow decides whether an observation for a game homed in region may
// be admitted. A refusal is counted; every BreakerCooldown-th refusal
// on a non-closed circuit converts into a half-open probe admission.
func (b *breaker) allow(region string) bool {
	hot := b.d.hot.Load()
	if hot.BreakerThreshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	rb := b.regions[region]
	if rb == nil || rb.state == breakerClosed {
		return true
	}
	rb.denied++
	if rb.denied >= hot.BreakerCooldown {
		rb.denied = 0
		rb.set(breakerHalfOpen)
		return true
	}
	return false
}

// record ingests one observe pass's grant activity (center names from
// operator.GrantActivity). A region that granted anything is healthy:
// its failure streak resets and its circuit closes. A region that only
// rejected extends its streak; at BreakerThreshold the circuit trips
// (and a failed half-open probe re-trips immediately). Regions the
// pass never touched are left alone.
func (b *breaker) record(granted, rejected []string) {
	hot := b.d.hot.Load()
	if hot.BreakerThreshold <= 0 || (len(granted) == 0 && len(rejected) == 0) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ok := map[string]bool{}
	for _, name := range granted {
		if region, known := b.centerRegion[name]; known {
			ok[region] = true
		}
	}
	bad := map[string]bool{}
	for _, name := range rejected {
		if region, known := b.centerRegion[name]; known && !ok[region] {
			bad[region] = true
		}
	}
	for region := range ok {
		rb := b.region(region)
		rb.consecFails = 0
		rb.denied = 0
		if rb.state != breakerClosed {
			rb.set(breakerClosed)
		}
	}
	for region := range bad {
		rb := b.region(region)
		rb.consecFails++
		switch {
		case rb.state == breakerHalfOpen:
			// The probe itself was rejected: straight back to open.
			rb.denied = 0
			rb.mTrips.Inc()
			rb.set(breakerOpen)
		case rb.state == breakerClosed && rb.consecFails >= hot.BreakerThreshold:
			rb.denied = 0
			rb.mTrips.Inc()
			rb.set(breakerOpen)
		}
	}
}
