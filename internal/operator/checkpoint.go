package operator

import (
	"fmt"
	"time"

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
	e := checkpoint.NewEnc()
	e.Str(payloadKind)
	e.Str(o.cfg.Game.Name)
	if o.zones == nil {
		e.Int(-1)
	} else {
		e.Int(o.zones.Len())
		zs, err := o.zones.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("operator: %w", err)
		}
		e.Bytes(zs)
	}
	e.Int(o.ticks)
	e.F64(o.shortfallSum)
	e.F64(o.overSum)
	e.Int(o.overTicks)
	e.Int(o.events)
	e.F64s(o.lastForecast)
	e.F64s(o.lastLoads)
	e.Int(o.droppedSamples)
	e.Int(o.counts.Failovers)
	e.Int(o.counts.Rejections)
	e.Int(o.counts.PartialGrants)
	e.Int(o.counts.Retries)
	o.step.Encode(e)
	leases := o.step.Leases()
	live := 0
	for _, l := range leases {
		if !l.Released() {
			live++
		}
	}
	e.Int(live)
	for _, l := range leases {
		if l.Released() {
			continue // tombstones are transient failover hints, not state
		}
		e.Str(l.Center.Name)
		e.F64s(l.Alloc[:])
		e.Time(l.Start)
		e.Time(l.Expires)
		e.Str(l.Tag)
	}
	return e.Data(), nil
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
	d := checkpoint.NewDec(payload)
	if kind := d.Str(); kind != payloadKind {
		if err := d.Err(); err != nil {
			return nil, nil, fmt.Errorf("operator: %w", err)
		}
		return nil, nil, fmt.Errorf("operator: checkpoint kind %q, want %q", kind, payloadKind)
	}
	if game := d.Str(); game != cfg.Game.Name {
		if err := d.Err(); err != nil {
			return nil, nil, fmt.Errorf("operator: %w", err)
		}
		return nil, nil, fmt.Errorf("operator: checkpoint for game %q, config is %q", game, cfg.Game.Name)
	}
	nz := d.Int()
	var zoneState []byte
	if nz >= 0 {
		zoneState = d.Bytes()
	}
	o.ticks = d.Int()
	o.shortfallSum = d.F64()
	o.overSum = d.F64()
	o.overTicks = d.Int()
	o.events = d.Int()
	o.lastForecast = d.F64s()
	o.lastLoads = d.F64s()
	o.droppedSamples = d.Int()
	o.counts.Failovers = d.Int()
	o.counts.Rejections = d.Int()
	o.counts.PartialGrants = d.Int()
	o.counts.Retries = d.Int()
	if err := o.step.Decode(d); err != nil {
		return nil, nil, fmt.Errorf("operator: %w", err)
	}
	nLeases := d.Int()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("operator: %w", err)
	}
	if nLeases < 0 || nLeases > 1<<20 {
		return nil, nil, fmt.Errorf("operator: checkpoint lease count %d", nLeases)
	}
	type leaseRec struct {
		center       string
		alloc        datacenter.Vector
		start, until time.Time
		tag          string
	}
	// Records are appended as they decode: a corrupt count must not
	// size an allocation the payload cannot back.
	var recs []leaseRec
	for i := 0; i < nLeases && d.Err() == nil; i++ {
		var r leaseRec
		r.center = d.Str()
		alloc := d.F64s()
		r.start = d.Time()
		r.until = d.Time()
		r.tag = d.Str()
		if d.Err() == nil && len(alloc) != int(datacenter.NumResources) {
			return nil, nil, fmt.Errorf("operator: lease %d has %d resources", i, len(alloc))
		}
		copy(r.alloc[:], alloc)
		recs = append(recs, r)
	}
	if err := d.Close(); err != nil {
		return nil, nil, fmt.Errorf("operator: %w", err)
	}
	if nz >= 0 {
		// The zone count sizes the predictor set, so check it against the
		// decoded load buffer before anything is allocated from it.
		if len(o.lastLoads) != nz {
			return nil, nil, fmt.Errorf("operator: checkpoint has %d zones but %d load samples", nz, len(o.lastLoads))
		}
		o.zones = predict.NewZoneSet(cfg.Predictor, nz)
		if err := o.zones.Restore(zoneState); err != nil {
			return nil, nil, fmt.Errorf("operator: %w", err)
		}
		o.cleanBuf = make([]float64, nz)
	}

	// Reconcile the checkpointed lease book against the live ecosystem.
	rec := &Reconciliation{}
	claimed := make(map[*datacenter.Lease]bool)
	var leases []*datacenter.Lease
	for _, r := range recs {
		c := cfg.Matcher.CenterByName(r.center)
		var adopted *datacenter.Lease
		if c != nil {
			for _, l := range c.LeasesByTag(r.tag) {
				if !claimed[l] && l.Alloc == r.alloc &&
					l.Start.Equal(r.start) && l.Expires.Equal(r.until) {
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
		leases = append(leases, datacenter.Tombstone(c, r.alloc, r.start, r.until, r.tag))
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
