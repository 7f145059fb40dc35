package datacenter

import "time"

// This file holds the hooks crash recovery needs: inspecting and
// reconstructing a center's lease book, and snapshotting the scalar
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

// Adopt re-creates a lease from checkpointed bookkeeping WITHOUT
// touching the center's allocation or cost accounting — those are
// restored wholesale via RestoreCheckpointState, and double-counting
// an adopted lease would corrupt both. Adoption order matters: it
// fixes the shed order and the float summation order, so callers must
// adopt in the original acquisition order.
func (c *Center) Adopt(alloc Vector, start, expires time.Time, tag string) *Lease {
	l := &Lease{Center: c, Alloc: alloc, Start: start, Expires: expires, Tag: tag}
	c.push(l)
	return l
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

// CheckpointState is the scalar state a checkpoint must carry per
// center beyond the lease book.
type CheckpointState struct {
	// Allocated is the reserved-resource vector, bit-exact. It cannot
	// be recomputed as the sum of live leases: float accumulation order
	// and the residue of past expiries make the stored value the only
	// faithful one.
	Allocated Vector
	// TotalCost is the cumulative rental cost.
	TotalCost float64
	// Watermark is the latest time the center has observed.
	Watermark time.Time
	// FailDepth and Degraded reproduce the fault state: the refcount of
	// open full-outage windows and the raw degraded machine fraction.
	FailDepth int
	Degraded  float64
}

// CheckpointState captures the center's scalar accounting state.
func (c *Center) CheckpointState() CheckpointState {
	return CheckpointState{
		Allocated: c.allocated,
		TotalCost: c.totalCost,
		Watermark: c.watermark,
		FailDepth: c.failDepth,
		Degraded:  c.degraded,
	}
}

// RestoreCheckpointState overwrites the scalar accounting state with a
// checkpointed one. Callers re-adopt the lease book separately (see
// Adopt); the two must come from the same checkpoint.
func (c *Center) RestoreCheckpointState(s CheckpointState) {
	c.allocated = s.Allocated
	c.totalCost = s.TotalCost
	c.watermark = s.Watermark
	c.failDepth = s.FailDepth
	c.degraded = s.Degraded
}
