package datacenter

import (
	"math"
	"time"

	"mmogdc/internal/checkpoint"
)

// This file holds the hooks crash recovery needs: inspecting and
// reconstructing a center's lease book, and checkpointing the scalar
// accounting state that cannot be recomputed from the leases (the
// allocated vector depends on float summation order; the cost total
// includes long-expired leases).

// Released reports whether the lease has been released (expired, shed,
// lost to a center failure, or explicitly released).
func (l *Lease) Released() bool { return l.released }

// Leases returns a copy of the live lease list in acquisition order
// (the order shedToFit sheds from, newest last).
func (c *Center) Leases() []*Lease {
	out := make([]*Lease, len(c.leases))
	copy(out, c.leases)
	return out
}

// LeasesByTag returns the live leases carrying the tag, in acquisition
// order.
func (c *Center) LeasesByTag(tag string) []*Lease {
	var out []*Lease
	for _, l := range c.leases {
		if l.Tag == tag {
			out = append(out, l)
		}
	}
	return out
}

// Release drops one live lease before its expiry, freeing its
// resources. It exists for crash reconciliation — releasing leases a
// restarted operator no longer recognizes as its own (acquired after
// the checkpoint it restored from) — so the paid cost is not refunded:
// the allocation genuinely happened. Returns false when the lease is
// not live on this center.
func (c *Center) Release(l *Lease) bool {
	if !c.End(l) {
		return false
	}
	c.early++
	return true
}

// Adopt makes a checkpointed center's state c's own: the scalar
// accounting that State read into from, a scratch center built like c,
// and the live leases, each naming c, in their original acquisition
// order, which fixes the shed order and the float summation order. The
// leases do not touch the allocation or the cost: both come wholesale
// from from, and double-counting an adopted lease would corrupt them.
func (c *Center) Adopt(from *Center, leases []*Lease) {
	c.allocated, c.totalCost, c.watermark = from.allocated, from.totalCost, from.watermark
	c.failDepth, c.degraded = from.failDepth, from.degraded
	for _, l := range leases {
		c.push(l)
	}
}

// Tombstone builds an already-released lease remembering where a
// checkpointed allocation used to live. A restored operator holds one
// for each lease that did not survive the crash window: the tombstone
// is inert (it contributes no capacity and is never matched by the
// center) but still names its center, which routes the operator's
// same-tick failover re-acquisition around it.
func Tombstone(c *Center, alloc Vector, start, expires time.Time, tag string) *Lease {
	return &Lease{Center: c, Alloc: alloc, Start: start, Expires: expires, Tag: tag, released: true}
}

// State writes or reads the center's scalar accounting state, which a
// checkpoint carries beside the lease book (see Adopt): the reserved
// vector, bit-exact — float accumulation order and the residue of past
// expiries make the stored value, not the sum of live leases, the only
// faithful one — the cumulative cost, the latest time observed, and
// the fault state (the refcount of open full-outage windows and the
// raw degraded machine fraction). A reader refuses a vector of another
// width, a negative fail depth, and a NaN, infinite or negative
// degradation; overlapping degradations may take it past 1.
func (c *Center) State(k *checkpoint.Codec) {
	k.F64Array(c.allocated[:])
	k.F64(&c.totalCost)
	k.Time(&c.watermark)
	k.Int(&c.failDepth)
	k.F64(&c.degraded)
	if c.failDepth < 0 || !(c.degraded >= 0) || math.IsInf(c.degraded, 1) {
		k.Failf("center %q fail depth %d, degraded %v", c.Name, c.failDepth, c.degraded)
	}
}

// State writes or reads a lease record: its allocation, window and
// tag. A reader refuses an allocation of another width.
func (l *Lease) State(k *checkpoint.Codec) {
	k.F64Array(l.Alloc[:])
	k.Time(&l.Start)
	k.Time(&l.Expires)
	k.Str(&l.Tag)
}
