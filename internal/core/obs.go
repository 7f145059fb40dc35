package core

import (
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/obs"
	"mmogdc/internal/par"
	"mmogdc/internal/provision"
)

// runObs is the engine's observability harness: every instrument the
// tick loop publishes into, pre-registered so the hot path never takes
// the registry lock. It is strictly write-only with respect to the
// simulation — nothing in Run ever reads it back — so an obs-enabled
// run is bit-identical to a disabled one (TestObsRunBitIdentical).
// All methods are no-ops on a nil receiver; a disabled run makes no
// clock calls and allocates nothing (BenchmarkObsOverhead).
type runObs struct {
	o *obs.Obs

	// Per-phase tick timing (DESIGN.md §6 phases).
	tickDur      *obs.Histogram
	phaseObserve *obs.Histogram
	phaseReduce  *obs.Histogram
	phaseAcquire *obs.Histogram

	// Checkpoint latency, split into encode and write.
	ckptEncode *obs.Histogram
	ckptWrite  *obs.Histogram
	ckptWrites *obs.Counter

	// Provisioning counters (the Resilience bridge: incremented at the
	// same sites as the Result.Resilience fields). The acquisition
	// counters live in tel, where the zones' steps publish.
	ticks          *obs.Counter
	disruptive     *obs.Counter
	unmet          *obs.Counter
	droppedSamples *obs.Counter
	outagesFull    *obs.Counter
	outagesPartial *obs.Counter
	recoveries     *obs.Counter
	regionDark     *obs.Counter
	brownoutTicks  *obs.Counter
	shedLeases     *obs.Counter
	tel            *provision.Telemetry

	// Live-run gauges, set once per tick on the sequential reduce path.
	tickGauge *obs.Gauge
	allocCPU  *obs.Gauge
	loadCPU   *obs.Gauge
	overPct   *obs.Gauge
	underPct  *obs.Gauge

	// Worker-pool utilization, bridged from par.Stats deltas.
	poolCaller *obs.Counter
	poolHelper *obs.Counter
	poolSkips  *obs.Counter
	lastPool   par.Stats

	// Span tracing (nil trc disables it; every span helper is then a
	// no-op with no clock reads). tickSp/obsSp/acqSp are the live
	// enclosing spans of the sequential control path; the parallel
	// per-zone phase only reads obsSp's ID, which is written before the
	// pool fans out.
	trc     *obs.Tracer
	tickSp  *obs.Span
	obsSp   *obs.Span
	acqSp   *obs.Span
	curTick int
	// outageDepth/outageWin track the open async outage window per
	// center (overlapping windows compose by depth, like the engine's
	// refcounted center health); failover spans link to them.
	outageDepth map[string]int
	outageWin   map[string]obs.SpanID
	outageName  map[string]string
}

// newRunObs registers the engine's metric families; a nil bundle
// disables everything.
func newRunObs(o *obs.Obs) *runObs {
	if o == nil {
		return nil
	}
	r := o.Registry
	ro := &runObs{o: o}

	ro.tickDur = r.Histogram("mmogdc_tick_duration_seconds",
		"Wall-clock duration of one full simulation tick.", obs.TimeBuckets)
	phase := func(name string) *obs.Histogram {
		return r.Histogram("mmogdc_tick_phase_duration_seconds",
			"Wall-clock duration of one tick phase (observe/predict, reduce, acquire).",
			obs.TimeBuckets, obs.L("phase", name))
	}
	ro.phaseObserve = phase("observe")
	ro.phaseReduce = phase("reduce")
	ro.phaseAcquire = phase("acquire")

	ro.ckptEncode = r.Histogram("mmogdc_checkpoint_encode_seconds",
		"Time to serialize the engine state into a checkpoint payload.", obs.TimeBuckets)
	ro.ckptWrite = r.Histogram("mmogdc_checkpoint_write_seconds",
		"Time to seal, fsync, and rename a checkpoint to disk.", obs.TimeBuckets)
	ro.ckptWrites = r.Counter("mmogdc_checkpoint_writes_total",
		"Checkpoints written to disk.")

	ro.ticks = r.Counter("mmogdc_ticks_total", "Scored simulation ticks.")
	ro.disruptive = r.Counter("mmogdc_disruptive_ticks_total",
		"Ticks with a significant under-allocation (|Y| > 1%) on any resource.")
	ro.unmet = r.Counter("mmogdc_unmet_ticks_total",
		"Ticks where the ecosystem could not serve the full demand.")
	ro.tel = &provision.Telemetry{
		Recorder: o.Recorder,
		Spans:    ro,
		Grants: r.Counter("mmogdc_grants_total",
			"Acquisitions that won at least one lease."),
		GrantLeases: r.Counter("mmogdc_grant_leases_total",
			"Leases acquired across all grants."),
		Failovers: r.Counter("mmogdc_failovers_total",
			"Zone-ticks that re-acquired capacity lost to a failed or degraded center."),
		FailoverLeases: r.Counter("mmogdc_failover_leases_total",
			"Leases won by failover re-acquisitions."),
		Retries: r.Counter("mmogdc_retries_total",
			"Backed-off re-attempts after injected grant rejections."),
		Rejections: r.Counter("mmogdc_rejections_total",
			"Grant attempts vetoed by the fault injector."),
		PartialGrants: r.Counter("mmogdc_partial_grants_total",
			"Grants the fault injector trimmed to a fraction."),
		Deferred: r.Counter("mmogdc_failovers_deferred_total",
			"Failover re-acquisitions deferred by the per-tick failover budget."),
	}
	ro.droppedSamples = r.Counter("mmogdc_dropped_samples_total",
		"Monitoring samples lost and carried forward (LOCF).")
	ro.outagesFull = r.Counter("mmogdc_outages_total",
		"Center outage events by kind.", obs.L("kind", "full"))
	ro.outagesPartial = r.Counter("mmogdc_outages_total",
		"Center outage events by kind.", obs.L("kind", "partial"))
	ro.recoveries = r.Counter("mmogdc_recoveries_total",
		"Center recovery events (full or partial capacity returning).")
	ro.regionDark = r.Counter("mmogdc_region_blackouts_total",
		"Whole-region blackout windows injected by the correlated fault model.")
	ro.brownoutTicks = r.Counter("mmogdc_brownout_ticks_total",
		"Ticks spent in brownout mode (surviving capacity below demand).")
	ro.shedLeases = r.Counter("mmogdc_shed_leases_total",
		"Leases released by brownout priority shedding.")

	ro.tickGauge = r.Gauge("mmogdc_tick", "Current simulation tick.")
	ro.allocCPU = r.Gauge("mmogdc_allocated_cpu_units",
		"Total CPU units allocated at the last scored tick.")
	ro.loadCPU = r.Gauge("mmogdc_load_cpu_units",
		"Total CPU demand at the last scored tick.")
	ro.overPct = r.Gauge("mmogdc_over_allocation_pct",
		"CPU over-allocation beyond the load at the last scored tick (%).")
	ro.underPct = r.Gauge("mmogdc_under_allocation_pct",
		"CPU under-allocation at the last scored tick (%, <= 0).")

	ro.poolCaller = r.Counter("mmogdc_pool_indices_total",
		"Per-zone work items executed, by executor.", obs.L("executor", "caller"))
	ro.poolHelper = r.Counter("mmogdc_pool_indices_total",
		"Per-zone work items executed, by executor.", obs.L("executor", "helper"))
	ro.poolSkips = r.Counter("mmogdc_pool_helper_skips_total",
		"Helper dispatches skipped because every resident worker was busy.")

	if o.Tracer != nil {
		ro.trc = o.Tracer
		ro.outageDepth = map[string]int{}
		ro.outageWin = map[string]obs.SpanID{}
		ro.outageName = map[string]string{}
	}
	return ro
}

// telemetry is where the zones' steps publish their acquisitions (nil
// when disabled).
func (ro *runObs) telemetry() *provision.Telemetry {
	if ro == nil {
		return nil
	}
	return ro.tel
}

// now reads the obs clock; the zero Time when disabled (no clock call).
func (ro *runObs) now() time.Time {
	if ro == nil {
		return time.Time{}
	}
	return ro.o.Now()
}

// beginTick opens the tick's root span at the already-measured tick
// start (name "tick", or "bootstrap" for the pre-loop provisioning).
func (ro *runObs) beginTick(t int, name string, start time.Time) {
	if ro == nil {
		return
	}
	ro.curTick = t
	if ro.trc == nil {
		return
	}
	ro.tickSp = ro.trc.BeginAt(name, "tick", 0, start)
	ro.tickSp.SetTick(t)
}

// beginBootstrap opens the pre-loop bootstrap span (tick 0); the
// per-zone predict and acquire spans of the bootstrap hang off it.
func (ro *runObs) beginBootstrap() {
	if ro == nil || ro.trc == nil {
		return
	}
	ro.beginTick(0, "bootstrap", ro.o.Now())
	ro.obsSp = ro.tickSp
	ro.acqSp = ro.tickSp
}

// endBootstrap closes the bootstrap span.
func (ro *runObs) endBootstrap() {
	if ro == nil || ro.trc == nil {
		return
	}
	ro.obsSp, ro.acqSp = nil, nil
	ro.tickSp.End()
	ro.tickSp = nil
}

// beginObserve opens the observe/predict phase span at the phase's
// already-measured start; the per-zone predict spans parent to it.
func (ro *runObs) beginObserve(start time.Time) {
	if ro == nil || ro.trc == nil {
		return
	}
	ro.obsSp = ro.trc.BeginAt("phase.observe", "tick", ro.tickSp.ID(), start)
	ro.obsSp.SetTick(ro.curTick)
}

// zoneSpan opens one per-zone predict span, annotated with the zone
// tag and the pool worker index executing it. Safe to call from the
// parallel phase: it only reads obsSp's ID (written before the fan-
// out) and the tracer serializes its own appends.
func (ro *runObs) zoneSpan(tag string, t, worker int) *obs.Span {
	if ro == nil || ro.trc == nil {
		return nil
	}
	sp := ro.trc.Begin("predict", "zone", ro.obsSp.ID())
	sp.SetSubject(tag)
	sp.SetTick(t)
	sp.SetWorker(worker)
	return sp
}

// observeDone, reduceDone, and acquireDone record one phase's
// duration. Phase selection happens inside the method: an argument of
// ro.phaseObserve at the call site would dereference a nil ro.
func (ro *runObs) observeDone(from, to time.Time) {
	if ro == nil {
		return
	}
	ro.phaseObserve.Observe(to.Sub(from).Seconds())
	if ro.obsSp != nil {
		ro.obsSp.EndAt(to)
		ro.obsSp = nil
	}
}

func (ro *runObs) reduceDone(from, to time.Time) {
	if ro == nil {
		return
	}
	ro.phaseReduce.Observe(to.Sub(from).Seconds())
	if ro.trc != nil {
		ro.trc.Complete(obs.SpanRec{
			Name: "phase.reduce", Cat: "tick", Parent: ro.tickSp.ID(),
			Tick: ro.curTick, Start: from, End: to,
		})
	}
}

// beginAcquireSpan opens the acquire phase span at the reduce phase's
// end; the per-zone acquire spans parent to it.
func (ro *runObs) beginAcquireSpan(start time.Time) {
	if ro == nil || ro.trc == nil {
		return
	}
	ro.acqSp = ro.trc.BeginAt("phase.acquire", "tick", ro.tickSp.ID(), start)
	ro.acqSp.SetTick(ro.curTick)
}

// BeginAcquire opens one zone's acquisition span (provision.Spans). A
// failover links to the open outage window of the first center that
// dropped the zone; a retry links to the rejection span it backs off
// from — the failover→retry causality chains the audit tool follows.
func (ro *runObs) BeginAcquire(t int, tag string, lost []string, retry bool, rejected obs.SpanID) *obs.Span {
	if ro == nil || ro.trc == nil {
		return nil
	}
	name := "acquire"
	switch {
	case len(lost) > 0:
		name = "acquire.failover"
	case retry:
		name = "acquire.retry"
	}
	sp := ro.trc.Begin(name, "zone", ro.acqSp.ID())
	sp.SetSubject(tag)
	sp.SetTick(t)
	switch {
	case len(lost) > 0:
		sp.SetLink(ro.outageWin[lost[0]])
	case retry:
		sp.SetLink(rejected)
	}
	return sp
}

// Enclosing returns the acquire-phase span, which a parked failover's
// event carries (provision.Spans).
func (ro *runObs) Enclosing() obs.SpanID {
	if ro == nil {
		return 0
	}
	return ro.acqSp.ID()
}

func (ro *runObs) acquireDone(from, to time.Time) {
	if ro == nil {
		return
	}
	ro.phaseAcquire.Observe(to.Sub(from).Seconds())
	if ro.acqSp != nil {
		ro.acqSp.EndAt(to)
		ro.acqSp = nil
	}
}

// tickDone closes out one tick: total duration, gauges, tick counter,
// and the worker-pool utilization delta.
func (ro *runObs) tickDone(t int, from, to time.Time, allocCPU, loadCPU, overPct, underPct float64, pool *par.Pool) {
	if ro == nil {
		return
	}
	ro.tickDur.Observe(to.Sub(from).Seconds())
	if ro.tickSp != nil {
		ro.tickSp.EndAt(to)
		ro.tickSp = nil
	}
	ro.ticks.Inc()
	ro.tickGauge.Set(float64(t))
	ro.allocCPU.Set(allocCPU)
	ro.loadCPU.Set(loadCPU)
	ro.overPct.Set(overPct)
	ro.underPct.Set(underPct)
	s := pool.Stats()
	ro.poolCaller.Add(s.CallerIndices - ro.lastPool.CallerIndices)
	ro.poolHelper.Add(s.HelperIndices - ro.lastPool.HelperIndices)
	ro.poolSkips.Add(s.HelperSkips - ro.lastPool.HelperSkips)
	ro.lastPool = s
}

// outage records one center losing capacity (fraction is the share
// that vanished; >= 1 means fully offline). The first overlapping
// window for a center opens an async outage track in the trace;
// further overlapping windows only deepen it.
func (ro *runObs) outage(t int, center string, fraction float64) {
	if ro == nil {
		return
	}
	name := obs.EventOutage
	if fraction >= 1 {
		ro.outagesFull.Inc()
	} else {
		ro.outagesPartial.Inc()
		name = obs.EventDegrade
	}
	var span obs.SpanID
	if ro.trc != nil {
		if ro.outageDepth[center] == 0 {
			ro.outageWin[center] = ro.trc.AsyncBegin(name, "faults", center, t, fraction)
			ro.outageName[center] = name
		}
		ro.outageDepth[center]++
		span = ro.outageWin[center]
	}
	e := obs.Event{Tick: t, Kind: name, Subject: center, Span: span}
	if fraction < 1 {
		e.Value = fraction
	}
	ro.o.Recorder.Record(e)
}

// recovery records capacity returning to a center; the last recovery
// of a composed window closes the async outage track.
func (ro *runObs) recovery(t int, center string, fraction float64) {
	if ro == nil {
		return
	}
	ro.recoveries.Inc()
	kind := obs.EventRecover
	if fraction < 1 {
		kind = obs.EventRestore
	}
	var span obs.SpanID
	if ro.trc != nil {
		span = ro.outageWin[center]
		if d := ro.outageDepth[center]; d > 0 {
			ro.outageDepth[center] = d - 1
			if d == 1 {
				// The async end must repeat the begin's name (trace_event
				// pairs b/e records by name+cat+id).
				ro.trc.AsyncEnd(span, ro.outageName[center], "faults", center, t)
				delete(ro.outageWin, center)
				delete(ro.outageName, center)
			}
		}
	}
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: kind, Subject: center, Value: fraction, Span: span})
}

// regionBlackout records a whole failure domain going dark. It fires
// before the member centers' individual outage events, so the audit
// classifier sees the correlated cause first.
func (ro *runObs) regionBlackout(t int, region string) {
	if ro == nil {
		return
	}
	ro.regionDark.Inc()
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventRegionBlackout, Subject: region})
}

// regionRecover records a blacked-out region's centers coming back.
func (ro *runObs) regionRecover(t int, region string) {
	if ro == nil {
		return
	}
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventRegionRecover, Subject: region})
}

// brownoutTransition records brownout mode engaging (gap is the CPU
// demand exceeding the budget) or disengaging.
func (ro *runObs) brownoutTransition(t int, engaged bool, gap float64) {
	if ro == nil {
		return
	}
	if engaged {
		ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventBrownoutStart, Value: gap, Span: ro.tickSp.ID()})
	} else {
		ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventBrownoutEnd, Span: ro.tickSp.ID()})
	}
}

// brownoutTick counts one tick spent in brownout mode.
func (ro *runObs) brownoutTick() {
	if ro == nil {
		return
	}
	ro.brownoutTicks.Inc()
}

// shed records one zone's demand being shed in brownout (players is
// the player-load deliberately left unserved, leases how many of its
// leases were released).
func (ro *runObs) shed(t int, tag string, players float64, leases int) {
	if ro == nil {
		return
	}
	ro.shedLeases.Add(int64(leases))
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventShed, Subject: tag, Value: players, Span: ro.tickSp.ID()})
}

// droppedSample records one monitoring dropout.
func (ro *runObs) droppedSample(t int, tag string) {
	if ro == nil {
		return
	}
	ro.droppedSamples.Inc()
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventDropped, Subject: tag, Span: ro.tickSp.ID()})
}

// breach records one tick with a significant under-allocation: the
// disruptive-tick counter plus an sla_breach event carrying the worst
// per-resource under-allocation, the datum mmogaudit's episode
// detection replays.
func (ro *runObs) breach(t int, worstUnderPct float64) {
	if ro == nil {
		return
	}
	ro.disruptive.Inc()
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventBreach, Value: worstUnderPct, Span: ro.tickSp.ID()})
}

// unmetTick records one tick with unserved demand.
func (ro *runObs) unmetTick() {
	if ro == nil {
		return
	}
	ro.unmet.Inc()
}

// resumed records a run picking up from a checkpoint.
func (ro *runObs) resumed(tick int) {
	if ro == nil {
		return
	}
	ro.o.Recorder.Record(obs.Event{Tick: tick, Kind: obs.EventResume, Value: float64(tick)})
}

// checkpointed records one checkpoint write: encode latency (encStart
// to encDone), write latency (encDone to done), size, and the event —
// plus two child spans of the tick when tracing, reusing the already-
// measured boundaries.
func (ro *runObs) checkpointed(t, bytes int, encStart, encDone, done time.Time) {
	if ro == nil {
		return
	}
	ro.ckptEncode.Observe(encDone.Sub(encStart).Seconds())
	ro.ckptWrite.Observe(done.Sub(encDone).Seconds())
	ro.ckptWrites.Inc()
	var span obs.SpanID
	if ro.trc != nil {
		parent := ro.tickSp.ID()
		ro.trc.Complete(obs.SpanRec{
			Name: "checkpoint.encode", Cat: "checkpoint", Parent: parent,
			Tick: t, Start: encStart, End: encDone,
		})
		span = ro.trc.Complete(obs.SpanRec{
			Name: "checkpoint.write", Cat: "checkpoint", Parent: parent,
			Tick: t, Value: float64(bytes), Start: encDone, End: done,
		})
	}
	ro.o.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventCheckpoint, Value: float64(bytes), Span: span})
}

// finish bridges the end-of-run aggregates that only exist as Result
// fields — per-center availability and the resilience summary — into
// gauges, so a scraped or dumped registry carries the whole story.
func (ro *runObs) finish(res *Result) {
	if ro == nil {
		return
	}
	r := ro.o.Registry
	resil := res.Resilience
	for name, avail := range resil.Availability {
		r.Gauge("mmogdc_center_availability",
			"Mean fraction of a center's capacity available over the run.",
			obs.L("center", name)).Set(avail)
	}
	r.Gauge("mmogdc_capacity_lost_cpu_ticks",
		"Tick-weighted CPU capacity unavailable to the ecosystem.").Set(resil.CapacityLostCPUTicks)
	r.Gauge("mmogdc_mean_time_to_recover_ticks",
		"Mean ticks from outage start to the next disruption-free tick.").Set(resil.MeanTimeToRecoverTicks)
	r.Gauge("mmogdc_service_recovered",
		"Outage windows after which service healed within the run.").Set(float64(resil.ServiceRecovered))
	r.Gauge("mmogdc_capacity_recovered",
		"Outage windows whose center returned to full health within the run.").Set(float64(resil.CapacityRecovered))
	r.Gauge("mmogdc_avg_over_allocation_pct",
		"Mean CPU over-allocation beyond the load over the run (%).").Set(res.AvgOverPct[datacenter.CPU])
	r.Gauge("mmogdc_avg_under_allocation_pct",
		"Mean CPU under-allocation over the run (%, <= 0).").Set(res.AvgUnderPct[datacenter.CPU])
	r.Gauge("mmogdc_resumed_from_tick",
		"Checkpoint tick this run resumed from (0 = fresh).").Set(float64(res.ResumedFromTick))
	r.Gauge("mmogdc_shed_player_ticks",
		"Player-load (players x ticks) deliberately unserved by brownout shedding.").Set(resil.ShedPlayerTicks)
	r.Gauge("mmogdc_time_to_full_recovery_ticks",
		"Longest stretch from capacity impairment to full recovery (ticks).").Set(float64(resil.TimeToFullRecoveryTicks))
}
