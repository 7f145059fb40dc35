package core

import (
	"fmt"
	"slices"

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
//
// The layout is stated once, in the state sections below, which a
// writer and a reader both run (checkpoint.Codec).

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
	c := checkpoint.NewWriter()
	e.state(c, &doneTick)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c.Data(), nil
}

// restore re-establishes a snapshot over freshly constructed run
// state, returning the tick the snapshot was taken after. The centers
// must be untouched (as built by the caller's Config); the lease books
// are reconstructed from the snapshot, and a refused payload leaves
// the centers as they were. A payload holding a state no run
// reaches is refused: scored ticks and series that disagree with the
// checkpoint's tick, a negative fail depth, a NaN, infinite or negative
// degradation, or an availability sum outside [0, tick].
func (e *engine) restore(payload []byte) (int, error) {
	c := checkpoint.NewReader(payload)
	var doneTick int
	e.state(c, &doneTick)
	if err := c.Close(); err != nil {
		return 0, fmt.Errorf("core: resume: %w", err)
	}
	return doneTick, nil
}

// state writes or reads the core-run@2 layout, section by section. It
// aborts the codec on what a reader cannot record as a refusal of what
// it read: a zone predictor that cannot be snapshotted, or a live lease
// missing from every book.
func (e *engine) state(c *checkpoint.Codec, doneTick *int) {
	e.fingerprint(c)
	e.scores(c, doneTick)
	e.resilience(c, *doneTick)
	books, read := e.centerBooks(c)
	e.zoneStates(c, books)
	e.tail(c)
	if c.Commit() {
		for ci, dc := range e.cfg.Centers {
			dc.Adopt(read[ci], books[ci])
		}
	}
}

// fingerprint ties a checkpoint to the run it was taken from: the
// payload kind, sample count, static mode, zone tags and center names.
// A reader also refuses centers that are not freshly constructed.
func (e *engine) fingerprint(c *checkpoint.Codec) {
	checkpoint.Expect(c, corePayloadKind, "checkpoint kind")
	checkpoint.Expect(c, e.samples, "checkpoint samples")
	checkpoint.Expect(c, e.cfg.Static, "checkpoint static mode")
	checkpoint.Expect(c, len(e.zones), "checkpoint zones")
	for i := range e.zones {
		checkpoint.Expect(c, e.zones[i].tag, "checkpoint zone")
	}
	checkpoint.Expect(c, len(e.cfg.Centers), "checkpoint centers")
	for _, dc := range e.cfg.Centers {
		checkpoint.Expect(c, dc.Name, "checkpoint center")
		if c.Reading() && dc.ActiveLeases() != 0 {
			c.Failf("center %q is not freshly constructed", dc.Name)
		}
	}
}

// scores carries the checkpoint's tick, the scored-tick counters and
// series, the per-resource accumulators, and the per-game
// under-allocation sums, sorted by name for a canonical byte stream
// (the live accumulator is flat, in workload order). A reader refuses
// a tick outside the run, and scored ticks or series that disagree
// with it.
func (e *engine) scores(c *checkpoint.Codec, doneTick *int) {
	res := e.res
	c.Int(doneTick)
	c.Int(&res.Ticks)
	c.Int(&res.Events)
	c.Int(&res.Unmet)
	c.Ints(&res.CumEvents)
	c.F64s(&res.OverPct)
	c.F64s(&res.UnderPct)
	c.F64Array(e.overSum[:])
	c.F64Array(e.underSum[:])
	overTicks := e.overTicks[:]
	c.Ints(&overTicks)
	if len(overTicks) != len(e.overTicks) {
		c.Failf("over-allocation ticks of %d resources", len(overTicks))
	}
	copy(e.overTicks[:], overTicks)
	if t := *doneTick; t < 1 || t >= e.samples {
		c.Failf("checkpoint tick %d outside run of %d samples", t, e.samples)
	} else if res.Ticks != t || len(res.CumEvents) != t || len(res.OverPct) != t || len(res.UnderPct) != t {
		c.Failf("checkpoint after tick %d scores %d ticks in series of %d/%d/%d",
			t, res.Ticks, len(res.CumEvents), len(res.OverPct), len(res.UnderPct))
	}

	names := slices.Clone(e.gameNames)
	slices.Sort(names)
	n := len(names)
	c.Int(&n)
	for i := 0; i < n && c.Err() == nil; i++ {
		var name string
		if i < len(names) {
			name = names[i]
		}
		c.Str(&name)
		gi := slices.Index(e.gameNames, name)
		if gi < 0 {
			c.Failf("checkpoint accumulates unknown game %q", name)
			break
		}
		c.F64(&e.gameUnder[gi])
	}
}

// resilience carries the outage, failover and brownout counters, each
// center's availability sum, and the outage tracker's open windows. A
// reader refuses an availability sum outside [0, doneTick].
func (e *engine) resilience(c *checkpoint.Codec, doneTick int) {
	r, n := e.res.Resilience, &e.counts
	c.Int(&r.Outages)
	c.Int(&r.FullOutages)
	c.Int(&r.PartialOutages)
	c.Int(&r.CapacityRecovered)
	c.Int(&r.ServiceRecovered)
	c.Int(&n.Failovers)
	c.Int(&n.FailoverLeases)
	c.Int(&n.Retries)
	c.Int(&n.Rejections)
	c.Int(&n.PartialGrants)
	c.Int(&r.DroppedSamples)
	c.F64(&r.CapacityLostCPUTicks)
	c.Int(&r.RegionBlackouts)
	c.Int(&n.Deferred)
	c.Int(&r.BrownoutTicks)
	c.Int(&r.ShedLeases)
	c.F64(&r.ShedPlayerTicks)
	c.Int(&r.TimeToFullRecoveryTicks)
	for _, dc := range e.cfg.Centers {
		v := r.Availability[dc.Name]
		c.F64(&v)
		if !(v >= 0 && v <= float64(doneTick)) {
			c.Failf("center %q availability sum %v outside [0, %d]", dc.Name, v, doneTick)
		}
		r.Availability[dc.Name] = v
	}

	c.F64(&e.tracker.ttrSum)
	c.Ints(&e.tracker.pending)
	for i, w := range e.tracker.open {
		open := w != nil
		c.Bool(&open)
		if !open {
			e.tracker.open[i] = nil
			continue
		}
		if w == nil {
			w = &outageWindow{}
			e.tracker.open[i] = w
		}
		c.Int(&w.start)
		c.Bool(&w.sawFull)
	}
}

// centerBooks carries each center's scalar state and its lease book in
// list order (the order fixes both float summation and newest-first
// shedding), and returns the books, which the zones' lease references
// index. A reader reads each center into a scratch center built like
// it, also returned, and its leases into records that name the real
// center; state hands both to the real center only once the whole
// payload has been read, so a refused one leaves the centers as built.
func (e *engine) centerBooks(c *checkpoint.Codec) (books [][]*datacenter.Lease, read []*datacenter.Center) {
	books = make([][]*datacenter.Lease, len(e.cfg.Centers))
	for ci, dc := range e.cfg.Centers {
		st := dc
		if c.Reading() {
			st = datacenter.NewCenter(dc.Name, dc.Location, dc.Machines, dc.Policy)
			read = append(read, st)
		}
		st.State(c)
		books[ci] = st.Leases()
		n := len(books[ci])
		c.Int(&n)
		if n < 0 || n > 1<<20 {
			c.Failf("center %q lease count %d", dc.Name, n)
		}
		if !c.Reading() {
			for _, l := range books[ci] {
				l.State(c)
			}
			continue
		}
		for j := 0; j < n && c.Err() == nil; j++ {
			l := &datacenter.Lease{Center: dc}
			l.State(c)
			books[ci] = append(books[ci], l)
		}
	}
	return books, read
}

// zoneStates carries each zone's predictor state (in a section of its
// own), LOCF sample, step state (backoff and parked failover), and
// lease list as (center, position) references into the books — zone
// lease order also fixes float summation order. A reader refuses a
// mismatched predictor presence and references that dangle or fall
// outside the books.
func (e *engine) zoneStates(c *checkpoint.Codec, books [][]*datacenter.Lease) {
	var pos map[*datacenter.Lease][2]int
	if !c.Reading() {
		pos = map[*datacenter.Lease][2]int{}
		for ci, book := range books {
			for j, l := range book {
				pos[l] = [2]int{ci, j}
			}
		}
	}
	for i := range e.zones {
		z := &e.zones[i]
		checkpoint.Expect(c, z.predictor != nil, "zone predictor presence")
		if z.predictor != nil && c.Err() == nil {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				c.Abort(fmt.Errorf("zone %s predictor %T is not snapshotable", z.tag, z.predictor))
				return
			}
			c.Section(st.State)
		}
		c.F64(&z.lastObs)
		z.step.State(c)

		var refs []int
		if !c.Reading() {
			leases := z.step.Leases()
			refs = make([]int, 0, 2*len(leases))
			for _, l := range leases {
				p, ok := pos[l]
				if !ok {
					// A zone holding a lease absent from every live book
					// can only mean the lease died this tick and was not
					// pruned yet; it contributes nothing and is dropped
					// from the snapshot (pruning does the same next tick).
					if !l.Released() {
						c.Abort(fmt.Errorf("zone %s holds a live lease missing from every center", z.tag))
						return
					}
					continue
				}
				refs = append(refs, p[0], p[1])
			}
		}
		c.Ints(&refs)
		if len(refs)%2 != 0 {
			c.Failf("zone %s has a dangling lease reference", z.tag)
		}
		if !c.Reading() || c.Err() != nil {
			continue
		}
		leases := make([]*datacenter.Lease, 0, len(refs)/2)
		for k := 0; k < len(refs); k += 2 {
			ci, j := refs[k], refs[k+1]
			if ci < 0 || ci >= len(books) || j < 0 || j >= len(books[ci]) {
				c.Failf("zone %s references lease (%d,%d) outside the books", z.tag, ci, j)
				break
			}
			leases = append(leases, books[ci][j])
		}
		z.step.SetLeases(leases)
	}
}

// tail carries the fault plan's grant-stream cursor, the brownout and
// capacity-loss state, and the per-center statistics. A reader refuses
// a checkpoint whose fault injection or center tracking differs from
// the run's.
func (e *engine) tail(c *checkpoint.Codec) {
	checkpoint.Expect(c, e.plan != nil, "checkpoint fault injection")
	if e.plan != nil && c.Err() == nil {
		grants := e.plan.SnapshotGrants()
		for i := range grants {
			c.U64(&grants[i])
		}
		if c.Reading() && c.Err() == nil {
			if err := e.plan.RestoreGrants(grants); err != nil {
				c.Failf("%w", err)
			}
		}
	}
	c.Bool(&e.brownoutActive)
	c.Int(&e.capLossStart)

	checkpoint.Expect(c, e.cfg.TrackCenters, "checkpoint TrackCenters")
	if !e.cfg.TrackCenters || c.Err() != nil {
		return
	}
	for _, dc := range e.cfg.Centers {
		cs := e.res.CenterStats[dc.Name]
		c.F64(&cs.AvgAllocatedCPU)
		c.F64(&cs.AvgFreeCPU)
		regions := make([]string, 0, len(cs.AllocatedByRegion))
		for name := range cs.AllocatedByRegion {
			regions = append(regions, name)
		}
		slices.Sort(regions)
		n := len(regions)
		c.Int(&n)
		for i := 0; i < n && c.Err() == nil; i++ {
			var name string
			if i < len(regions) {
				name = regions[i]
			}
			c.Str(&name)
			v := cs.AllocatedByRegion[name]
			c.F64(&v)
			cs.AllocatedByRegion[name] = v
		}
	}
}
