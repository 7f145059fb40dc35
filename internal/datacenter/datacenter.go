// Package datacenter implements the paper's data-center model
// (Section II-B): hosters pooling machines whose resources — CPU,
// memory, and external network input/output — are rented to game
// operators in *bulks*. A hosting policy fixes, per resource type, the
// minimum number of resource units that can be allocated in one
// request (the resource bulk) and the minimum duration of an
// allocation (the time bulk). Allocated resources are reserved for the
// whole lease duration: no preemption, no early release.
//
// Resources are measured in the paper's abstract units: 1.0 unit of a
// resource is what a fully loaded game server consumes (for external
// outward bandwidth, 3 MB/s).
package datacenter

import (
	"fmt"
	"math"
	"time"

	"mmogdc/internal/geo"
)

// Resource enumerates the four resource types of Section II-B.
type Resource int

const (
	// CPU time from data center machines.
	CPU Resource = iota
	// Memory from data center machines.
	Memory
	// ExtNetIn is input from the external network of a data center.
	ExtNetIn
	// ExtNetOut is output to the external network of a data center.
	ExtNetOut
	// NumResources is the number of resource types.
	NumResources
)

// String implements fmt.Stringer with the paper's labels.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "CPU"
	case Memory:
		return "Memory"
	case ExtNetIn:
		return "ExtNet[in]"
	case ExtNetOut:
		return "ExtNet[out]"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// AllResources lists the resource types in declaration order.
var AllResources = []Resource{CPU, Memory, ExtNetIn, ExtNetOut}

// Vector is a quantity of each resource type, in abstract units.
type Vector [NumResources]float64

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v scaled by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Max returns the element-wise maximum.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// ClampNonNegative zeroes negative components.
func (v Vector) ClampNonNegative() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// FitsWithin reports whether v <= o element-wise (with tolerance).
func (v Vector) FitsWithin(o Vector) bool {
	const eps = 1e-9
	for i := range v {
		if v[i] > o[i]+eps {
			return false
		}
	}
	return true
}

// HostingPolicy is a data center's space-time renting policy
// (Section II-B): one resource bulk per resource type plus the time
// bulk. A zero bulk means the policy does not constrain that resource
// (the paper's "n/a"): it is allocated exactly as requested alongside
// the constrained resources.
type HostingPolicy struct {
	// Name labels the policy ("HP-1" ... "HP-11").
	Name string
	// Bulk is the minimal allocation quantum per resource; 0 = n/a.
	Bulk Vector
	// TimeBulk is the minimal duration of an allocation.
	TimeBulk time.Duration
}

// RoundUp rounds a request up to whole bulks. Unconstrained resources
// (bulk 0) pass through unchanged; constrained resources are raised to
// the smallest positive multiple of the bulk covering the request (a
// non-zero request always costs at least one bulk).
func (p HostingPolicy) RoundUp(req Vector) Vector {
	var out Vector
	for i, want := range req {
		if want < 0 {
			want = 0
		}
		b := p.Bulk[i]
		if b <= 0 || want == 0 {
			out[i] = want
			continue
		}
		out[i] = math.Ceil(want/b-1e-9) * b
	}
	return out
}

// Grain is the sorting key for the paper's matching preference for
// "finer grained resources": the CPU bulk, the resource every MMOG
// request is ultimately sized by. Policies that do not constrain CPU
// sort as coarsest.
func (p HostingPolicy) Grain() float64 {
	if p.Bulk[CPU] <= 0 {
		return math.Inf(1)
	}
	return p.Bulk[CPU]
}

// Lease is one bulk allocation held by a game operator.
type Lease struct {
	// Center owns the leased resources.
	Center *Center
	// Alloc is the allocated (bulk-rounded) resource vector.
	Alloc Vector
	// Start and Expires delimit the reservation.
	Start   time.Time
	Expires time.Time
	// Tag carries the requester's identifier (e.g. zone name).
	Tag      string
	released bool
}

// Active reports whether the lease holds resources at time t.
func (l *Lease) Active(t time.Time) bool {
	return !l.released && !t.Before(l.Start) && t.Before(l.Expires)
}

// PerMachineCapacity is the resource capacity one data-center machine
// contributes. A machine runs one fully loaded game server (1 CPU
// unit); hosting centers provision memory and network generously
// relative to CPU, which is why the network-heavy policies of Table IV
// can bundle several ExtNet[in] units per CPU bulk without exhausting
// the pipe — CPU is the binding resource, as in the paper (the
// East-coast centers are the only ones left with free resources in
// Fig. 14).
var PerMachineCapacity = Vector{1, 4, 12, 4}

// Center is one data center (the paper assumes one cluster per hoster,
// so center == cluster == hoster).
type Center struct {
	// Name identifies the center in reports ("US East (1)").
	Name string
	// Location anchors latency-class matching.
	Location geo.Point
	// Machines is the cluster size.
	Machines int
	// Policy is the hosting policy set by the center's owner.
	Policy HostingPolicy

	capacity  Vector
	allocated Vector
	leases    []*Lease
	reserved  []*Lease
	totalCost float64
	// watermark is the latest time the center has observed (via Lease
	// or Expire); reservations must start at or after it.
	watermark time.Time
	// failDepth refcounts overlapping full-outage windows: the center
	// is offline while failDepth > 0, and a window's recovery never
	// revives a center still inside another window.
	failDepth int
	// degraded is the raw sum of the machine fractions lost to the
	// currently open partial-degradation windows. It may exceed 1
	// transiently (overlapping degradations); the effective capacity
	// clamps it.
	degraded float64
	// early counts the releases of live leases before their expiry
	// (Fail, shedToFit, Release); see EarlyReleases.
	early uint64
	// unordered records that leases may not be sorted by Expires, so
	// Expire must scan them rather than release a prefix.
	unordered bool
}

// NewCenter builds a center with capacity Machines x PerMachineCapacity.
func NewCenter(name string, loc geo.Point, machines int, policy HostingPolicy) *Center {
	return &Center{
		Name:     name,
		Location: loc,
		Machines: machines,
		Policy:   policy,
		capacity: PerMachineCapacity.Scale(float64(machines)),
	}
}

// Capacity returns the total resource capacity.
func (c *Center) Capacity() Vector { return c.capacity }

// Allocated returns the currently reserved resources.
func (c *Center) Allocated() Vector { return c.allocated }

// AvailableFraction is the share of the center's machines currently
// healthy: 0 while offline, 1−degraded under partial degradation.
func (c *Center) AvailableFraction() float64 {
	if c.failDepth > 0 {
		return 0
	}
	d := c.degraded
	if d > 1 {
		d = 1
	}
	if d < 0 {
		d = 0
	}
	return 1 - d
}

// EffectiveCapacity is the capacity the surviving machines provide:
// the nominal capacity scaled by AvailableFraction.
func (c *Center) EffectiveCapacity() Vector {
	f := c.AvailableFraction()
	if f >= 1 {
		return c.capacity
	}
	return c.capacity.Scale(f)
}

// Free returns the currently available resources on the surviving
// machines.
func (c *Center) Free() Vector {
	return c.EffectiveCapacity().Sub(c.allocated).ClampNonNegative()
}

// Expire releases every lease that has ended by time t, activates
// reservations whose windows have begun, and returns the number of
// leases released.
func (c *Center) Expire(t time.Time) int {
	if t.After(c.watermark) {
		c.watermark = t
	}
	c.activateReservations(t)
	n := 0
	if !c.unordered {
		// A center's leases share its time bulk and arrive in time
		// order, so the ended ones are a prefix.
		for n < len(c.leases) && !t.Before(c.leases[n].Expires) {
			c.drop(c.leases[n])
			n++
		}
		if n > 0 {
			c.leases = c.leases[:copy(c.leases, c.leases[n:])]
		}
	} else {
		live := c.leases[:0]
		c.unordered = false
		for _, l := range c.leases {
			if !l.released && !t.Before(l.Expires) {
				c.drop(l)
				n++
				continue
			}
			if k := len(live); k > 0 && l.Expires.Before(live[k-1].Expires) {
				c.unordered = true
			}
			live = append(live, l)
		}
		c.leases = live
	}
	if len(c.leases) == 0 {
		// Snap float residue: with no live leases the allocation is
		// zero by definition, not 1e-16.
		c.allocated = Vector{}
	}
	if c.degraded > 0 {
		// An activated reservation may not fit the degraded capacity
		// its window was admitted against.
		c.shedToFit()
	}
	return n
}

// push appends a live lease, noting when it breaks the expiry order.
func (c *Center) push(l *Lease) {
	if n := len(c.leases); n > 0 && l.Expires.Before(c.leases[n-1].Expires) {
		c.unordered = true
	}
	c.leases = append(c.leases, l)
}

// drop releases a live lease and frees its resources; the caller
// removes it from the lease list.
func (c *Center) drop(l *Lease) {
	l.released = true
	c.allocated = c.allocated.Sub(l.Alloc).ClampNonNegative()
}

// End releases one live lease that has run to its expiry, as Expire
// does for every lease at once, for a holder that keeps its own clock.
// Ending is not an early release: EarlyReleases does not move. Returns
// false when the lease is not live on this center.
func (c *Center) End(l *Lease) bool {
	for i, cur := range c.leases {
		if cur == l {
			c.leases = append(c.leases[:i], c.leases[i+1:]...)
			c.drop(l)
			if len(c.leases) == 0 {
				c.allocated = Vector{}
			}
			return true
		}
	}
	return false
}

// EarlyReleases counts the live leases the center has released before
// their expiry — lost to an outage, shed by a degradation, or handed
// back — since it was built. A lease book whose centers' counts have
// not moved, and whose centers' clocks have not reached its earliest
// expiry, has lost no lease.
func (c *Center) EarlyReleases() uint64 { return c.early }

// Clock returns the latest time the center has observed (through Lease
// or Expire); Expire has released no lease expiring after it.
func (c *Center) Clock() time.Time { return c.watermark }

// ErrInsufficient is returned when a center cannot host a request.
var ErrInsufficient = fmt.Errorf("datacenter: insufficient free capacity")

// ErrOffline is returned while a center is failed.
var ErrOffline = fmt.Errorf("datacenter: center offline")

// Fail takes the center offline: every live lease and pending
// reservation is lost immediately (the machines are gone, not merely
// full), and new requests are rejected until the center is back. Fail
// is refcounted so overlapping fault windows compose — the center
// recovers only after a matching number of Recover calls. It returns
// the leases and reservations dropped (empty for nested failures,
// whose machines are already gone), so callers can fail the lost
// capacity over to other centers.
func (c *Center) Fail() []*Lease {
	c.failDepth++
	if c.failDepth > 1 {
		return nil
	}
	dropped := make([]*Lease, 0, len(c.leases)+len(c.reserved))
	for _, l := range c.leases {
		l.released = true
		dropped = append(dropped, l)
	}
	for _, l := range c.reserved {
		l.released = true
		dropped = append(dropped, l)
	}
	c.leases = c.leases[:0]
	c.reserved = c.reserved[:0]
	c.unordered = false
	c.allocated = Vector{}
	c.early++
	return dropped
}

// Recover undoes one Fail. The center comes back online (with empty
// machines) only when every open failure window has recovered.
func (c *Center) Recover() {
	if c.failDepth > 0 {
		c.failDepth--
	}
}

// Offline reports whether the center is inside at least one full
// outage window.
func (c *Center) Offline() bool { return c.failDepth > 0 }

// Degrade removes frac of the center's machines — a partial outage:
// the center keeps serving on what survives. Overlapping degradations
// compose additively (each Restore gives back exactly what its
// Degrade took). Leases no longer fitting the shrunk capacity are
// shed, newest first, and returned so the caller can re-acquire them
// elsewhere.
func (c *Center) Degrade(frac float64) []*Lease {
	if frac < 0 {
		frac = 0
	}
	c.degraded += frac
	return c.shedToFit()
}

// Restore gives back the machines a Degrade(frac) took.
func (c *Center) Restore(frac float64) {
	if frac < 0 {
		frac = 0
	}
	c.degraded -= frac
	if c.degraded < 1e-12 {
		// Snap float residue: fully restored means fully restored.
		c.degraded = 0
	}
}

// shedToFit drops live leases, newest first, until the allocation
// fits the effective capacity, and returns the dropped leases.
func (c *Center) shedToFit() []*Lease {
	var dropped []*Lease
	eff := c.EffectiveCapacity()
	for len(c.leases) > 0 && !c.allocated.FitsWithin(eff) {
		l := c.leases[len(c.leases)-1]
		c.leases = c.leases[:len(c.leases)-1]
		c.drop(l)
		dropped = append(dropped, l)
	}
	if len(c.leases) == 0 {
		c.allocated = Vector{}
	}
	if len(dropped) > 0 {
		c.early++
	}
	return dropped
}

// Lease reserves the request (rounded up to the policy's bulks) from
// time now for at least the policy's time bulk. It fails with
// ErrInsufficient when the rounded request does not fit the free
// capacity — leases are all-or-nothing; callers wanting partial
// fulfillment split the request before calling.
func (c *Center) Lease(req Vector, now time.Time, tag string) (*Lease, error) {
	if now.After(c.watermark) {
		c.watermark = now
	}
	if c.Offline() {
		return nil, ErrOffline
	}
	rounded := c.Policy.RoundUp(req)
	if rounded.IsZero() {
		return nil, fmt.Errorf("datacenter: empty request")
	}
	if len(c.reserved) == 0 {
		// Fast path: no future bookings, the live view decides.
		if !rounded.FitsWithin(c.Free()) {
			return nil, ErrInsufficient
		}
	} else {
		// Reservations may begin inside this lease's window; admit
		// only if the window's peak stays within the effective
		// (degradation-adjusted) capacity.
		peak := c.maxUsageDuring(now, now.Add(c.Policy.TimeBulk))
		if !rounded.Add(peak).FitsWithin(c.EffectiveCapacity()) {
			return nil, ErrInsufficient
		}
	}
	l := &Lease{
		Center:  c,
		Alloc:   rounded,
		Start:   now,
		Expires: now.Add(c.Policy.TimeBulk),
		Tag:     tag,
	}
	c.allocated = c.allocated.Add(rounded)
	c.push(l)
	c.totalCost += DefaultPrices.LeaseCost(l)
	return l, nil
}

// ActiveLeases returns the number of currently held leases.
func (c *Center) ActiveLeases() int { return len(c.leases) }
