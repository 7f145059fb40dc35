package core

import (
	"fmt"
	"sort"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
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

// engineState bundles the live simulation state Run accumulates, so
// snapshot/restore can reach all of it without threading two dozen
// parameters.
type engineState struct {
	cfg       *Config
	zones     []zoneState
	res       *Result
	overSum   *[datacenter.NumResources]float64
	underSum  *[datacenter.NumResources]float64
	overTicks *[datacenter.NumResources]int
	// gameNames lists the distinct games in workload order; gameUnder
	// is the flat per-game under-allocation accumulator indexed the
	// same way (zoneState.gameIdx).
	gameNames []string
	gameUnder []float64
	tracker   *outageTracker
	plan      *faults.Plan
	samples   int
	// counts are the acquisition counters the zones' steps share; they
	// sit among the Resilience fields in the byte layout.
	counts *provision.Counts
	// brownoutActive and capLossStart point at Run's live brownout /
	// time-to-full-recovery state, so a resume re-enters an in-progress
	// impairment episode instead of restarting its clock.
	brownoutActive *bool
	capLossStart   *int
}

// snapshot serializes the state after tick doneTick completed.
func (s *engineState) snapshot(doneTick int) ([]byte, error) {
	e := checkpoint.NewEnc()
	e.Str(corePayloadKind)
	// Fingerprint: a checkpoint resumes only the run it was taken from.
	e.Int(s.samples)
	e.Bool(s.cfg.Static)
	e.Int(len(s.zones))
	for i := range s.zones {
		e.Str(s.zones[i].tag)
	}
	e.Int(len(s.cfg.Centers))
	for _, c := range s.cfg.Centers {
		e.Str(c.Name)
	}

	e.Int(doneTick)
	e.Int(s.res.Ticks)
	e.Int(s.res.Events)
	e.Int(s.res.Unmet)
	e.Ints(s.res.CumEvents)
	e.F64s(s.res.OverPct)
	e.F64s(s.res.UnderPct)
	e.F64s(s.overSum[:])
	e.F64s(s.underSum[:])
	e.Ints(s.overTicks[:])

	// Per-game accumulators, sorted by name for a canonical byte
	// stream (the live accumulator is flat, in workload order).
	gameIdx := make(map[string]int, len(s.gameNames))
	names := make([]string, len(s.gameNames))
	copy(names, s.gameNames)
	for i, name := range s.gameNames {
		gameIdx[name] = i
	}
	sort.Strings(names)
	e.Int(len(names))
	for _, name := range names {
		e.Str(name)
		e.F64(s.gameUnder[gameIdx[name]])
	}

	r := s.res.Resilience
	e.Int(r.Outages)
	e.Int(r.FullOutages)
	e.Int(r.PartialOutages)
	e.Int(r.CapacityRecovered)
	e.Int(r.ServiceRecovered)
	e.Int(s.counts.Failovers)
	e.Int(s.counts.FailoverLeases)
	e.Int(s.counts.Retries)
	e.Int(s.counts.Rejections)
	e.Int(s.counts.PartialGrants)
	e.Int(r.DroppedSamples)
	e.F64(r.CapacityLostCPUTicks)
	e.Int(r.RegionBlackouts)
	e.Int(s.counts.Deferred)
	e.Int(r.BrownoutTicks)
	e.Int(r.ShedLeases)
	e.F64(r.ShedPlayerTicks)
	e.Int(r.TimeToFullRecoveryTicks)
	for _, c := range s.cfg.Centers {
		e.F64(r.Availability[c.Name])
	}

	e.F64(s.tracker.ttrSum)
	e.Ints(s.tracker.pending)
	for _, w := range s.tracker.open {
		if w == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.Int(w.start)
		e.Bool(w.sawFull)
	}

	// Centers: scalar accounting plus the lease book in list order (the
	// order fixes both float summation and newest-first shedding).
	leasePos := map[*datacenter.Lease][2]int{}
	for ci, c := range s.cfg.Centers {
		st := c.CheckpointState()
		e.F64s(st.Allocated[:])
		e.F64(st.TotalCost)
		e.Time(st.Watermark)
		e.Int(st.FailDepth)
		e.F64(st.Degraded)
		book := c.Leases()
		e.Int(len(book))
		for pos, l := range book {
			leasePos[l] = [2]int{ci, pos}
			e.F64s(l.Alloc[:])
			e.Time(l.Start)
			e.Time(l.Expires)
			e.Str(l.Tag)
		}
	}

	// Zones: predictor state, LOCF sample, the step's backoff and
	// parked failover, and the lease list as (center, position)
	// references into the books above — zone lease order also fixes
	// float summation order.
	for i := range s.zones {
		z := &s.zones[i]
		if z.predictor == nil {
			e.Bool(false)
		} else {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				return nil, fmt.Errorf("core: zone %s predictor %T is not snapshotable", z.tag, z.predictor)
			}
			e.Bool(true)
			e.Bytes(st.Snapshot())
		}
		e.F64(z.lastObs)
		z.step.Encode(e)
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
		e.Ints(refs)
	}

	if s.plan == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		for _, w := range s.plan.SnapshotGrants() {
			e.U64(w)
		}
	}

	e.Bool(*s.brownoutActive)
	e.Int(*s.capLossStart)

	e.Bool(s.cfg.TrackCenters)
	if s.cfg.TrackCenters {
		for _, c := range s.cfg.Centers {
			cs := s.res.CenterStats[c.Name]
			e.F64(cs.AvgAllocatedCPU)
			e.F64(cs.AvgFreeCPU)
			regions := make([]string, 0, len(cs.AllocatedByRegion))
			for name := range cs.AllocatedByRegion {
				regions = append(regions, name)
			}
			sort.Strings(regions)
			e.Int(len(regions))
			for _, name := range regions {
				e.Str(name)
				e.F64(cs.AllocatedByRegion[name])
			}
		}
	}
	return e.Data(), nil
}

// restore re-establishes a snapshot over freshly constructed run
// state, returning the tick the snapshot was taken after. The centers
// must be untouched (as built by the caller's Config); the lease books
// are reconstructed from the snapshot.
func (s *engineState) restore(payload []byte) (int, error) {
	d := checkpoint.NewDec(payload)
	fail := func(err error) (int, error) { return 0, fmt.Errorf("core: resume: %w", err) }
	if kind := d.Str(); kind != corePayloadKind {
		if err := d.Err(); err != nil {
			return fail(err)
		}
		return 0, fmt.Errorf("core: resume: checkpoint kind %q, want %q", kind, corePayloadKind)
	}
	if v := d.Int(); d.Err() == nil && v != s.samples {
		return 0, fmt.Errorf("core: resume: checkpoint for %d samples, run has %d", v, s.samples)
	}
	if v := d.Bool(); d.Err() == nil && v != s.cfg.Static {
		return 0, fmt.Errorf("core: resume: static-mode mismatch")
	}
	if v := d.Int(); d.Err() == nil && v != len(s.zones) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d zones, run has %d", v, len(s.zones))
	}
	for i := range s.zones {
		if tag := d.Str(); d.Err() == nil && tag != s.zones[i].tag {
			return 0, fmt.Errorf("core: resume: zone %q in checkpoint, %q in run", tag, s.zones[i].tag)
		}
	}
	if v := d.Int(); d.Err() == nil && v != len(s.cfg.Centers) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d centers, run has %d", v, len(s.cfg.Centers))
	}
	for _, c := range s.cfg.Centers {
		if name := d.Str(); d.Err() == nil && name != c.Name {
			return 0, fmt.Errorf("core: resume: center %q in checkpoint, %q in run", name, c.Name)
		}
		if c.ActiveLeases() != 0 {
			return 0, fmt.Errorf("core: resume: center %q is not freshly constructed", c.Name)
		}
	}

	doneTick := d.Int()
	s.res.Ticks = d.Int()
	s.res.Events = d.Int()
	s.res.Unmet = d.Int()
	s.res.CumEvents = d.Ints()
	s.res.OverPct = d.F64s()
	s.res.UnderPct = d.F64s()
	copy(s.overSum[:], d.F64s())
	copy(s.underSum[:], d.F64s())
	copy(s.overTicks[:], d.Ints())

	gameIdx := make(map[string]int, len(s.gameNames))
	for i, name := range s.gameNames {
		gameIdx[name] = i
	}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		name := d.Str()
		v := d.F64()
		gi, ok := gameIdx[name]
		if !ok {
			return 0, fmt.Errorf("core: resume: checkpoint accumulates unknown game %q", name)
		}
		s.gameUnder[gi] = v
	}

	r := s.res.Resilience
	r.Outages = d.Int()
	r.FullOutages = d.Int()
	r.PartialOutages = d.Int()
	r.CapacityRecovered = d.Int()
	r.ServiceRecovered = d.Int()
	s.counts.Failovers = d.Int()
	s.counts.FailoverLeases = d.Int()
	s.counts.Retries = d.Int()
	s.counts.Rejections = d.Int()
	s.counts.PartialGrants = d.Int()
	r.DroppedSamples = d.Int()
	r.CapacityLostCPUTicks = d.F64()
	r.RegionBlackouts = d.Int()
	s.counts.Deferred = d.Int()
	r.BrownoutTicks = d.Int()
	r.ShedLeases = d.Int()
	r.ShedPlayerTicks = d.F64()
	r.TimeToFullRecoveryTicks = d.Int()
	for _, c := range s.cfg.Centers {
		r.Availability[c.Name] = d.F64()
	}

	s.tracker.ttrSum = d.F64()
	s.tracker.pending = d.Ints()
	for i := range s.tracker.open {
		if d.Bool() {
			s.tracker.open[i] = &outageWindow{start: d.Int(), sawFull: d.Bool()}
		} else {
			s.tracker.open[i] = nil
		}
	}

	books := make([][]*datacenter.Lease, len(s.cfg.Centers))
	for ci, c := range s.cfg.Centers {
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

	for i := range s.zones {
		z := &s.zones[i]
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
	*s.brownoutActive = d.Bool()
	*s.capLossStart = d.Int()
	trackCenters := d.Bool()
	if d.Err() == nil {
		if hasPlan != (s.plan != nil) {
			return 0, fmt.Errorf("core: resume: fault-injection mismatch between checkpoint and config")
		}
		if trackCenters != s.cfg.TrackCenters {
			return 0, fmt.Errorf("core: resume: TrackCenters mismatch between checkpoint and config")
		}
	}
	if hasPlan && d.Err() == nil {
		if err := s.plan.RestoreGrants(grants); err != nil {
			return fail(err)
		}
	}
	if trackCenters && d.Err() == nil {
		for _, c := range s.cfg.Centers {
			cs := s.res.CenterStats[c.Name]
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
	if doneTick < 1 || doneTick >= s.samples {
		return 0, fmt.Errorf("core: resume: checkpoint tick %d outside run of %d samples", doneTick, s.samples)
	}
	return doneTick, nil
}
