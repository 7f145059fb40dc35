package operator

import (
	"fmt"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/predict"
)

// payloadKind stamps operator checkpoints so they can never be
// confused with the batch engine's (internal/core) snapshots.
const payloadKind = "mmogdc/operator@3"

// Snapshot serializes the operator's complete provisioning state: the
// per-zone predictors, tick counter and running metrics, the LOCF
// dropout buffer, the step's backoff state, and a descriptor for every
// live lease. Restoring it yields an operator whose subsequent
// forecasts are bit-identical to the uninterrupted one's.
//
// The raw payload pairs with checkpoint.Manager, which seals it and
// saves it atomically on disk.
func (o *Operator) Snapshot() ([]byte, error) {
	c := checkpoint.NewWriter()
	o.state(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("operator: %w", err)
	}
	return c.Data(), nil
}

// leaseRecord is a checkpointed lease: its center's name and record.
type leaseRecord struct {
	center string
	lease  datacenter.Lease
}

// state writes or reads the operator@3 layout. A writer writes the
// zone set in place and the live leases straight from the book; it
// aborts if a zone predictor cannot be written. A reader keeps the zone
// section as bytes and restores the zone predictors from it once the
// load buffer that fixes their count is read, and returns the
// checkpointed lease records for FromSnapshot to reconcile.
func (o *Operator) state(c *checkpoint.Codec) []leaseRecord {
	checkpoint.Expect(c, payloadKind, "checkpoint kind")
	checkpoint.Expect(c, o.cfg.Game.Name, "checkpoint game")
	nz, zones := -1, []byte(nil)
	if o.zones != nil {
		nz = o.zones.Len()
	}
	c.Int(&nz)
	switch {
	case nz < 0: // no zone set before the first observation
	case c.Reading():
		c.Bytes(&zones)
	default:
		c.Section(o.zones.State)
	}
	c.Int(&o.ticks)
	c.F64(&o.shortfallSum)
	c.F64(&o.overSum)
	c.Int(&o.overTicks)
	c.Int(&o.events)
	c.F64s(&o.lastForecast)
	c.F64s(&o.lastLoads)
	c.Int(&o.droppedSamples)
	c.Int(&o.counts.Failovers)
	c.Int(&o.counts.Rejections)
	c.Int(&o.counts.PartialGrants)
	c.Int(&o.counts.Retries)
	// The zone count sizes the predictor set, so check it against the
	// load buffer before anything is allocated from it.
	if nz >= 0 && len(o.lastLoads) != nz {
		c.Failf("checkpoint has %d zones but %d load samples", nz, len(o.lastLoads))
	}
	if c.Reading() && nz >= 0 && c.Err() == nil {
		o.zones = predict.NewZoneSet(o.cfg.Predictor, nz)
		r := checkpoint.NewReader(zones)
		o.zones.State(r)
		if err := r.Close(); err != nil {
			c.Failf("%w", err)
		}
		o.cleanBuf = make([]float64, nz)
	}
	o.step.State(c)

	book := o.step.Leases()
	live := 0
	for _, l := range book {
		if !l.Released() {
			live++
		}
	}
	c.Int(&live)
	if live < 0 || live > 1<<20 {
		c.Failf("checkpoint lease count %d", live)
	}
	if !c.Reading() {
		for _, l := range book {
			if l.Released() {
				continue // tombstones are transient failover hints, not state
			}
			name := l.Center.Name
			c.Str(&name)
			l.State(c)
		}
		return nil
	}
	// Records are appended as they are read: a corrupt count must not
	// size an allocation the payload cannot back.
	var recs []leaseRecord
	for i := 0; i < live && c.Err() == nil; i++ {
		var r leaseRecord
		c.Str(&r.center)
		r.lease.State(c)
		recs = append(recs, r)
	}
	return recs
}

// Reconciliation reports how a restored operator's checkpointed lease
// book was matched against the live ecosystem.
type Reconciliation struct {
	// Adopted leases survived the crash: a live lease with the same
	// center, allocation, and window still existed and was re-claimed.
	Adopted int
	// Lost leases did not survive (their center failed, shed them, or
	// disappeared from the configuration). Each leaves a tombstone that
	// steers the first post-restore tick's failover re-acquisition away
	// from the center that lost it.
	Lost int
	// Orphaned counts live ecosystem leases carrying this game's tag
	// that the checkpoint does not know — acquired between the
	// checkpoint and the crash. They are released back to their centers
	// so the restored operator does not double-provision.
	Orphaned int
}

// FromSnapshot rebuilds an operator from a raw Snapshot payload and
// reconciles its lease book against cfg.Matcher's live state (see
// Reconciliation).
func FromSnapshot(cfg Config, payload []byte) (*Operator, *Reconciliation, error) {
	o, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	c := checkpoint.NewReader(payload)
	recs := o.state(c)
	if err := c.Close(); err != nil {
		return nil, nil, fmt.Errorf("operator: %w", err)
	}

	// Reconcile the checkpointed lease book against the live ecosystem.
	rec := &Reconciliation{}
	claimed := make(map[*datacenter.Lease]bool)
	var leases []*datacenter.Lease
	for _, r := range recs {
		c, want := cfg.Matcher.CenterByName(r.center), &r.lease
		var adopted *datacenter.Lease
		if c != nil {
			for _, l := range c.LeasesByTag(want.Tag) {
				if !claimed[l] && l.Alloc == want.Alloc &&
					l.Start.Equal(want.Start) && l.Expires.Equal(want.Expires) {
					adopted = l
					break
				}
			}
		}
		if adopted != nil {
			claimed[adopted] = true
			leases = append(leases, adopted)
			rec.Adopted++
			continue
		}
		// The lease is gone — its center failed or shed it while the
		// operator was down (or the center left the configuration). A
		// tombstone makes the loss visible to the first Observe, which
		// fails the capacity over away from that center.
		leases = append(leases, datacenter.Tombstone(c, want.Alloc, want.Start, want.Expires, want.Tag))
		rec.Lost++
	}
	o.step.SetLeases(leases)
	// Leases the ecosystem holds under this game's tag that the
	// checkpoint predates: the crashed operator acquired them after its
	// last checkpoint. Release them — the restored operator will re-lease
	// what its (rewound) forecast actually demands.
	for _, c := range cfg.Matcher.Centers() {
		for _, l := range c.LeasesByTag(cfg.Game.Name) {
			if !claimed[l] {
				c.Release(l)
				rec.Orphaned++
			}
		}
	}
	return o, rec, nil
}

// Shutdown ends the session cleanly: every lease still in the book is
// released back to its center; other games' leases stay with them. A
// Snapshot taken afterwards resumes the forecasting state with an empty
// lease book — exactly what a clean stop left behind.
func (o *Operator) Shutdown() {
	o.step.Release()
}
