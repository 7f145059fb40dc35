package operator

import (
	"strconv"
	"time"

	"mmogdc/internal/obs"
	"mmogdc/internal/provision"
)

// opObs is the operator's observability harness, mirroring the
// engine-side runObs in internal/core: instruments are pre-registered,
// every method is a no-op on a nil receiver, and nothing the operator
// computes ever depends on it.
type opObs struct {
	o    *obs.Obs
	game string

	// cur is the live Observe-cycle span (nil when tracing is off);
	// events recorded during the cycle stamp its ID.
	cur *obs.Span

	observeDur *obs.Histogram

	ticks          *obs.Counter
	disruptive     *obs.Counter
	droppedSamples *obs.Counter
	// tel carries the acquisition counters the operator's step
	// publishes into.
	tel *provision.Telemetry

	allocCPU *obs.Gauge
	loadCPU  *obs.Gauge

	// zoneSubjects interns the dropped-sample subjects ("zone N"), which
	// the hot path would otherwise rebuild every tick.
	zoneSubjects []string
}

func newOpObs(o *obs.Obs, game string) *opObs {
	if o == nil {
		return nil
	}
	r := o.Registry
	g := obs.L("game", game)
	oo := &opObs{
		o:    o,
		game: game,
		observeDur: r.Histogram("mmogdc_operator_observe_duration_seconds",
			"Wall-clock duration of one operator Observe cycle.", obs.TimeBuckets, g),
		ticks: r.Counter("mmogdc_operator_ticks_total",
			"Monitoring snapshots the operator ingested.", g),
		disruptive: r.Counter("mmogdc_operator_disruptive_ticks_total",
			"Scored ticks whose under-allocation fell below -1% on any resource.", g),
		droppedSamples: r.Counter("mmogdc_operator_dropped_samples_total",
			"Monitoring samples lost and carried forward (LOCF).", g),
		allocCPU: r.Gauge("mmogdc_operator_allocated_cpu_units",
			"CPU units the operator held at the last snapshot.", g),
		loadCPU: r.Gauge("mmogdc_operator_load_cpu_units",
			"CPU demand of the last monitoring snapshot.", g),
	}
	oo.tel = &provision.Telemetry{
		Recorder: o.Recorder,
		Spans:    oo,
		Grants: r.Counter("mmogdc_operator_grants_total",
			"Acquisitions that won at least one lease.", g),
		GrantLeases: r.Counter("mmogdc_operator_grant_leases_total",
			"Leases acquired across all grants.", g),
		Failovers: r.Counter("mmogdc_operator_failovers_total",
			"Ticks that re-acquired capacity lost to a failed center.", g),
		Retries: r.Counter("mmogdc_operator_retries_total",
			"Backed-off re-attempts after injected grant rejections.", g),
		Rejections: r.Counter("mmogdc_operator_rejections_total",
			"Grant attempts vetoed by the fault injector.", g),
		PartialGrants: r.Counter("mmogdc_operator_partial_grants_total",
			"Grants the fault injector trimmed to a fraction.", g),
	}
	return oo
}

// telemetry is where the operator's step publishes its acquisitions
// (nil when disabled).
func (oo *opObs) telemetry() *provision.Telemetry {
	if oo == nil {
		return nil
	}
	return oo.tel
}

// zoneSubject returns the interned "zone N" event subject.
func (oo *opObs) zoneSubject(zone int) string {
	for len(oo.zoneSubjects) <= zone {
		oo.zoneSubjects = append(oo.zoneSubjects, "zone "+strconv.Itoa(len(oo.zoneSubjects)))
	}
	return oo.zoneSubjects[zone]
}

// beginObserve opens one Observe cycle's span at the cycle's already-
// measured start, parented under the caller's span (the daemon's
// per-request observe span; 0 roots the cycle as before).
func (oo *opObs) beginObserve(start time.Time, tick int, parent obs.SpanID) {
	if oo == nil || oo.o.Tracer == nil {
		return
	}
	oo.cur = oo.o.Tracer.BeginAt("operator.observe", "operator", parent, start)
	oo.cur.SetSubject(oo.game)
	oo.cur.SetTick(tick)
}

// BeginAcquire opens the lease-acquisition child span of the live
// Observe cycle (provision.Spans; nil when tracing is off).
func (oo *opObs) BeginAcquire(tick int, _ string, _ []string, _ bool, _ obs.SpanID) *obs.Span {
	if oo == nil || oo.o.Tracer == nil {
		return nil
	}
	s := oo.o.Tracer.Begin("operator.acquire", "operator", oo.cur.ID())
	s.SetSubject(oo.game)
	s.SetTick(tick)
	return s
}

// Enclosing returns the live Observe span (provision.Spans).
func (oo *opObs) Enclosing() obs.SpanID { return oo.span() }

// span returns the live Observe span's ID (zero when tracing is off).
func (oo *opObs) span() obs.SpanID {
	if oo == nil {
		return 0
	}
	return oo.cur.ID()
}

// observed closes one Observe cycle's timing and span.
func (oo *opObs) observed(start time.Time) {
	if oo == nil {
		return
	}
	end := oo.o.Now()
	oo.observeDur.Observe(end.Sub(start).Seconds())
	if oo.cur != nil {
		oo.cur.EndAt(end)
		oo.cur = nil
	}
}

// now reads the obs clock (zero Time when disabled).
func (oo *opObs) now() time.Time {
	if oo == nil {
		return time.Time{}
	}
	return oo.o.Now()
}

// tick records one scored snapshot and its headline gauges.
func (oo *opObs) tick(have, load float64) {
	if oo == nil {
		return
	}
	oo.ticks.Inc()
	oo.allocCPU.Set(have)
	oo.loadCPU.Set(load)
}

// disruptiveTick records one snapshot with a significant
// under-allocation, with its worst Υ for post-run episode detection.
func (oo *opObs) disruptiveTick(tick int, underPct float64) {
	if oo == nil {
		return
	}
	oo.disruptive.Inc()
	oo.o.Recorder.Record(obs.Event{Tick: tick, Kind: obs.EventBreach,
		Subject: oo.game, Value: underPct, Span: oo.span()})
}

func (oo *opObs) droppedSample(tick, zone int) {
	if oo == nil {
		return
	}
	oo.droppedSamples.Inc()
	oo.o.Recorder.Record(obs.Event{Tick: tick, Kind: obs.EventDropped,
		Subject: oo.zoneSubject(zone), Span: oo.span()})
}
