package datacenter

import (
	"fmt"
	"time"
)

// Advance reservations implement the second service model of
// Section II-B: "depending on the data center's service model, either
// best-effort or based on advance reservations, resource requests are
// queued or immediately fitted in the schedule". A reservation books a
// bulk allocation for a *future* window; the center admits it only if
// the window's peak usage — live leases still overlapping it plus
// other reservations — leaves room.

// ErrPastWindow rejects reservations that start in the past relative
// to the center's clock (use Lease for immediate needs).
var ErrPastWindow = fmt.Errorf("datacenter: reservation window already started")

// Reserve books the request (rounded up to the policy's bulks) for the
// window [start, start+TimeBulk). The reservation is billed at grant
// time like any lease. It fails with ErrInsufficient when the window's
// peak usage would exceed capacity.
func (c *Center) Reserve(req Vector, start time.Time, tag string) (*Lease, error) {
	if c.Offline() {
		return nil, ErrOffline
	}
	if start.Before(c.watermark) {
		return nil, ErrPastWindow
	}
	rounded := c.Policy.RoundUp(req)
	if rounded.IsZero() {
		return nil, fmt.Errorf("datacenter: empty reservation")
	}
	end := start.Add(c.Policy.TimeBulk)
	peak := c.maxUsageDuring(start, end)
	if !rounded.Add(peak).FitsWithin(c.EffectiveCapacity()) {
		return nil, ErrInsufficient
	}
	l := &Lease{
		Center:  c,
		Alloc:   rounded,
		Start:   start,
		Expires: end,
		Tag:     tag,
	}
	c.reserved = append(c.reserved, l)
	c.totalCost += DefaultPrices.LeaseCost(l)
	return l, nil
}

// maxUsageDuring returns the element-wise peak resource usage over the
// window [s, e): live leases that still overlap it plus reservations
// whose windows intersect it. Usage within the window only changes at
// lease start instants, so evaluating at s and at every start inside
// (s, e) is exact.
func (c *Center) maxUsageDuring(s, e time.Time) Vector {
	points := []time.Time{s}
	for _, l := range c.reserved {
		if l.Start.After(s) && l.Start.Before(e) {
			points = append(points, l.Start)
		}
	}
	var peak Vector
	for _, t := range points {
		var usage Vector
		for _, l := range c.leases {
			if l.Active(t) {
				usage = usage.Add(l.Alloc)
			}
		}
		for _, l := range c.reserved {
			if l.Active(t) {
				usage = usage.Add(l.Alloc)
			}
		}
		peak = peak.Max(usage)
	}
	return peak
}

// activateReservations moves reservations whose windows have begun
// into the live lease set (and drops any that already expired without
// ever being observed live). Called from Expire, which every consumer
// runs once per tick.
func (c *Center) activateReservations(now time.Time) {
	if len(c.reserved) == 0 {
		return
	}
	pending := c.reserved[:0]
	for _, l := range c.reserved {
		switch {
		case !now.Before(l.Expires):
			// Whole window already in the past: nothing to activate.
			l.released = true
		case !now.Before(l.Start):
			c.push(l)
			c.allocated = c.allocated.Add(l.Alloc)
		default:
			pending = append(pending, l)
		}
	}
	c.reserved = pending
}
