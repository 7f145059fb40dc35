package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/predict"
)

// This file implements checkpoint/resume for the batch engine: the
// full simulation state — predictors, lease books, center accounting,
// metric accumulators, outage tracker, and the grant-fault stream — is
// serialized at end-of-tick boundaries, so a killed run restarted with
// the same Config resumes from the newest valid snapshot and produces
// a Result bit-identical to an uninterrupted run. The fault plan
// itself is NOT serialized: it is a pure function of the seed and is
// regenerated on resume; only the sequential grant stream's cursor
// needs capturing.

// corePayloadKind stamps engine checkpoints so they can never be
// confused with the online operator's (internal/operator) snapshots.
const corePayloadKind = "mmogdc/core-run@2"

// ErrStopped is returned by Run when Config.StopAfterTick halted the
// simulation deliberately (a simulated crash for recovery drills). The
// checkpoint store holds the state to resume from; there is no final
// Result by design.
var ErrStopped = fmt.Errorf("core: run stopped after requested tick")

// snapshot serializes the state after tick doneTick completed.
func (e *engine) snapshot(doneTick int) ([]byte, error) {
	enc := checkpoint.NewEnc()
	enc.Str(corePayloadKind)
	// Fingerprint: a checkpoint resumes only the run it was taken from.
	enc.Int(e.samples)
	enc.Bool(e.cfg.Static)
	enc.Int(len(e.zones))
	for i := range e.zones {
		enc.Str(e.zones[i].tag)
	}
	enc.Int(len(e.cfg.Centers))
	for _, c := range e.cfg.Centers {
		enc.Str(c.Name)
	}

	enc.Int(doneTick)
	enc.Int(e.res.Ticks)
	enc.Int(e.res.Events)
	enc.Int(e.res.Unmet)
	enc.Ints(e.res.CumEvents)
	enc.F64s(e.res.OverPct)
	enc.F64s(e.res.UnderPct)
	enc.F64s(e.overSum[:])
	enc.F64s(e.underSum[:])
	enc.Ints(e.overTicks[:])

	// Per-game accumulators, sorted by name for a canonical byte
	// stream (the live accumulator is flat, in workload order).
	names := slices.Clone(e.gameNames)
	sort.Strings(names)
	enc.Int(len(names))
	for _, name := range names {
		enc.Str(name)
		enc.F64(e.gameUnder[slices.Index(e.gameNames, name)])
	}

	r := e.res.Resilience
	enc.Int(r.Outages)
	enc.Int(r.FullOutages)
	enc.Int(r.PartialOutages)
	enc.Int(r.CapacityRecovered)
	enc.Int(r.ServiceRecovered)
	enc.Int(e.counts.Failovers)
	enc.Int(e.counts.FailoverLeases)
	enc.Int(e.counts.Retries)
	enc.Int(e.counts.Rejections)
	enc.Int(e.counts.PartialGrants)
	enc.Int(r.DroppedSamples)
	enc.F64(r.CapacityLostCPUTicks)
	enc.Int(r.RegionBlackouts)
	enc.Int(e.counts.Deferred)
	enc.Int(r.BrownoutTicks)
	enc.Int(r.ShedLeases)
	enc.F64(r.ShedPlayerTicks)
	enc.Int(r.TimeToFullRecoveryTicks)
	for _, c := range e.cfg.Centers {
		enc.F64(r.Availability[c.Name])
	}

	enc.F64(e.tracker.ttrSum)
	enc.Ints(e.tracker.pending)
	for _, w := range e.tracker.open {
		if w == nil {
			enc.Bool(false)
			continue
		}
		enc.Bool(true)
		enc.Int(w.start)
		enc.Bool(w.sawFull)
	}

	// Centers: scalar accounting plus the lease book in list order (the
	// order fixes both float summation and newest-first shedding).
	leasePos := map[*datacenter.Lease][2]int{}
	for ci, c := range e.cfg.Centers {
		st := c.CheckpointState()
		enc.F64s(st.Allocated[:])
		enc.F64(st.TotalCost)
		enc.Time(st.Watermark)
		enc.Int(st.FailDepth)
		enc.F64(st.Degraded)
		book := c.Leases()
		enc.Int(len(book))
		for pos, l := range book {
			leasePos[l] = [2]int{ci, pos}
			enc.F64s(l.Alloc[:])
			enc.Time(l.Start)
			enc.Time(l.Expires)
			enc.Str(l.Tag)
		}
	}

	// Zones: predictor state, LOCF sample, the step's backoff and
	// parked failover, and the lease list as (center, position)
	// references into the books above — zone lease order also fixes
	// float summation order.
	for i := range e.zones {
		z := &e.zones[i]
		if z.predictor == nil {
			enc.Bool(false)
		} else {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				return nil, fmt.Errorf("core: zone %s predictor %T is not snapshotable", z.tag, z.predictor)
			}
			enc.Bool(true)
			enc.Bytes(st.Snapshot())
		}
		enc.F64(z.lastObs)
		z.step.Encode(enc)
		leases := z.step.Leases()
		refs := make([]int, 0, 2*len(leases))
		for _, l := range leases {
			p, ok := leasePos[l]
			if !ok {
				// A zone holding a lease absent from every live book can
				// only mean the lease died this tick and was not pruned
				// yet; it contributes nothing and is dropped from the
				// snapshot (pruning does the same next tick).
				if !l.Released() {
					return nil, fmt.Errorf("core: zone %s holds a live lease missing from every center", z.tag)
				}
				continue
			}
			refs = append(refs, p[0], p[1])
		}
		enc.Ints(refs)
	}

	if e.plan == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		for _, w := range e.plan.SnapshotGrants() {
			enc.U64(w)
		}
	}

	enc.Bool(e.brownoutActive)
	enc.Int(e.capLossStart)

	enc.Bool(e.cfg.TrackCenters)
	if e.cfg.TrackCenters {
		for _, c := range e.cfg.Centers {
			cs := e.res.CenterStats[c.Name]
			enc.F64(cs.AvgAllocatedCPU)
			enc.F64(cs.AvgFreeCPU)
			regions := make([]string, 0, len(cs.AllocatedByRegion))
			for name := range cs.AllocatedByRegion {
				regions = append(regions, name)
			}
			sort.Strings(regions)
			enc.Int(len(regions))
			for _, name := range regions {
				enc.Str(name)
				enc.F64(cs.AllocatedByRegion[name])
			}
		}
	}
	return enc.Data(), nil
}

// restore re-establishes a snapshot over freshly constructed run
// state, returning the tick the snapshot was taken after. The centers
// must be untouched (as built by the caller's Config); the lease books
// are reconstructed from the snapshot. A payload holding a state no run
// reaches is refused: scored ticks and series that disagree with the
// checkpoint's tick, a negative fail depth, a NaN, infinite or negative
// degradation, or an availability sum outside [0, tick].
func (e *engine) restore(payload []byte) (int, error) {
	d := checkpoint.NewDec(payload)
	fail := func(err error) (int, error) { return 0, fmt.Errorf("core: resume: %w", err) }
	if kind := d.Str(); kind != corePayloadKind {
		if err := d.Err(); err != nil {
			return fail(err)
		}
		return 0, fmt.Errorf("core: resume: checkpoint kind %q, want %q", kind, corePayloadKind)
	}
	if v := d.Int(); d.Err() == nil && v != e.samples {
		return 0, fmt.Errorf("core: resume: checkpoint for %d samples, run has %d", v, e.samples)
	}
	if v := d.Bool(); d.Err() == nil && v != e.cfg.Static {
		return 0, fmt.Errorf("core: resume: static-mode mismatch")
	}
	if v := d.Int(); d.Err() == nil && v != len(e.zones) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d zones, run has %d", v, len(e.zones))
	}
	for i := range e.zones {
		if tag := d.Str(); d.Err() == nil && tag != e.zones[i].tag {
			return 0, fmt.Errorf("core: resume: zone %q in checkpoint, %q in run", tag, e.zones[i].tag)
		}
	}
	if v := d.Int(); d.Err() == nil && v != len(e.cfg.Centers) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d centers, run has %d", v, len(e.cfg.Centers))
	}
	for _, c := range e.cfg.Centers {
		if name := d.Str(); d.Err() == nil && name != c.Name {
			return 0, fmt.Errorf("core: resume: center %q in checkpoint, %q in run", name, c.Name)
		}
		if c.ActiveLeases() != 0 {
			return 0, fmt.Errorf("core: resume: center %q is not freshly constructed", c.Name)
		}
	}

	doneTick := d.Int()
	e.res.Ticks = d.Int()
	e.res.Events = d.Int()
	e.res.Unmet = d.Int()
	e.res.CumEvents = d.Ints()
	e.res.OverPct = d.F64s()
	e.res.UnderPct = d.F64s()
	copy(e.overSum[:], d.F64s())
	copy(e.underSum[:], d.F64s())
	copy(e.overTicks[:], d.Ints())
	if d.Err() == nil && (e.res.Ticks != doneTick || len(e.res.CumEvents) != doneTick ||
		len(e.res.OverPct) != doneTick || len(e.res.UnderPct) != doneTick) {
		return 0, fmt.Errorf("core: resume: checkpoint after tick %d scores %d ticks in series of %d/%d/%d",
			doneTick, e.res.Ticks, len(e.res.CumEvents), len(e.res.OverPct), len(e.res.UnderPct))
	}

	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		name := d.Str()
		v := d.F64()
		gi := slices.Index(e.gameNames, name)
		if gi < 0 {
			return 0, fmt.Errorf("core: resume: checkpoint accumulates unknown game %q", name)
		}
		e.gameUnder[gi] = v
	}

	r := e.res.Resilience
	r.Outages = d.Int()
	r.FullOutages = d.Int()
	r.PartialOutages = d.Int()
	r.CapacityRecovered = d.Int()
	r.ServiceRecovered = d.Int()
	e.counts.Failovers = d.Int()
	e.counts.FailoverLeases = d.Int()
	e.counts.Retries = d.Int()
	e.counts.Rejections = d.Int()
	e.counts.PartialGrants = d.Int()
	r.DroppedSamples = d.Int()
	r.CapacityLostCPUTicks = d.F64()
	r.RegionBlackouts = d.Int()
	e.counts.Deferred = d.Int()
	r.BrownoutTicks = d.Int()
	r.ShedLeases = d.Int()
	r.ShedPlayerTicks = d.F64()
	r.TimeToFullRecoveryTicks = d.Int()
	for _, c := range e.cfg.Centers {
		v := d.F64()
		if d.Err() == nil && !(v >= 0 && v <= float64(doneTick)) {
			return 0, fmt.Errorf("core: resume: center %q availability sum %v outside [0, %d]", c.Name, v, doneTick)
		}
		r.Availability[c.Name] = v
	}

	e.tracker.ttrSum = d.F64()
	e.tracker.pending = d.Ints()
	for i := range e.tracker.open {
		if d.Bool() {
			e.tracker.open[i] = &outageWindow{start: d.Int(), sawFull: d.Bool()}
		} else {
			e.tracker.open[i] = nil
		}
	}

	books := make([][]*datacenter.Lease, len(e.cfg.Centers))
	for ci, c := range e.cfg.Centers {
		var st datacenter.CheckpointState
		alloc := d.F64s()
		st.TotalCost = d.F64()
		st.Watermark = d.Time()
		st.FailDepth = d.Int()
		st.Degraded = d.F64()
		if d.Err() != nil {
			break
		}
		if len(alloc) != int(datacenter.NumResources) {
			return 0, fmt.Errorf("core: resume: center %q allocation has %d resources", c.Name, len(alloc))
		}
		// Overlapping degradations may take Degraded past 1, but never
		// below 0 or off the finite line.
		if st.FailDepth < 0 || !(st.Degraded >= 0) || math.IsInf(st.Degraded, 1) {
			return 0, fmt.Errorf("core: resume: center %q fail depth %d, degraded %v", c.Name, st.FailDepth, st.Degraded)
		}
		copy(st.Allocated[:], alloc)
		c.RestoreCheckpointState(st)
		n := d.Int()
		if d.Err() != nil {
			break
		}
		if n < 0 || n > 1<<20 {
			return 0, fmt.Errorf("core: resume: center %q lease count %d", c.Name, n)
		}
		books[ci] = make([]*datacenter.Lease, 0, n)
		for j := 0; j < n; j++ {
			la := d.F64s()
			start := d.Time()
			expires := d.Time()
			tag := d.Str()
			if d.Err() != nil {
				break
			}
			if len(la) != int(datacenter.NumResources) {
				return 0, fmt.Errorf("core: resume: lease %d of %q has %d resources", j, c.Name, len(la))
			}
			var v datacenter.Vector
			copy(v[:], la)
			books[ci] = append(books[ci], c.Adopt(v, start, expires, tag))
		}
	}

	for i := range e.zones {
		z := &e.zones[i]
		hasPredictor := d.Bool()
		var snap []byte
		if hasPredictor {
			snap = d.Bytes()
		}
		z.lastObs = d.F64()
		if err := z.step.Decode(d); err != nil {
			return fail(err)
		}
		refs := d.Ints()
		if d.Err() != nil {
			break
		}
		if hasPredictor != (z.predictor != nil) {
			return 0, fmt.Errorf("core: resume: zone %s predictor presence mismatch", z.tag)
		}
		if hasPredictor {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				return 0, fmt.Errorf("core: resume: zone %s predictor %T is not snapshotable", z.tag, z.predictor)
			}
			if err := st.Restore(snap); err != nil {
				return fail(err)
			}
		}
		if len(refs)%2 != 0 {
			return 0, fmt.Errorf("core: resume: zone %s has a dangling lease reference", z.tag)
		}
		leases := make([]*datacenter.Lease, 0, len(refs)/2)
		for k := 0; k+1 < len(refs); k += 2 {
			ci, pos := refs[k], refs[k+1]
			if ci < 0 || ci >= len(books) || pos < 0 || pos >= len(books[ci]) {
				return 0, fmt.Errorf("core: resume: zone %s references lease (%d,%d) outside the books", z.tag, ci, pos)
			}
			leases = append(leases, books[ci][pos])
		}
		z.step.SetLeases(leases)
	}

	hasPlan := d.Bool()
	var grants [4]uint64
	if hasPlan {
		for i := range grants {
			grants[i] = d.U64()
		}
	}
	e.brownoutActive = d.Bool()
	e.capLossStart = d.Int()
	trackCenters := d.Bool()
	if d.Err() == nil {
		if hasPlan != (e.plan != nil) {
			return 0, fmt.Errorf("core: resume: fault-injection mismatch between checkpoint and config")
		}
		if trackCenters != e.cfg.TrackCenters {
			return 0, fmt.Errorf("core: resume: TrackCenters mismatch between checkpoint and config")
		}
	}
	if hasPlan && d.Err() == nil {
		if err := e.plan.RestoreGrants(grants); err != nil {
			return fail(err)
		}
	}
	if trackCenters && d.Err() == nil {
		for _, c := range e.cfg.Centers {
			cs := e.res.CenterStats[c.Name]
			cs.AvgAllocatedCPU = d.F64()
			cs.AvgFreeCPU = d.F64()
			for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
				name := d.Str()
				cs.AllocatedByRegion[name] = d.F64()
			}
		}
	}
	if err := d.Close(); err != nil {
		return fail(err)
	}
	if doneTick < 1 || doneTick >= e.samples {
		return 0, fmt.Errorf("core: resume: checkpoint tick %d outside run of %d samples", doneTick, e.samples)
	}
	return doneTick, nil
}
