// Package operator implements the game operator's online provisioning
// loop as a reusable component — the middleware role the paper's
// edutain@grid project occupies between the game and the data centers.
// Every tick the operator ingests the monitored per-zone load,
// forecasts the next interval with its per-zone predictors, converts
// the forecast into a resource demand through the game's update model,
// and leases any shortfall from the ecosystem. The leasing half is one
// internal/provision step for the whole game — the same step core.Run
// drives once per server group — so a live deployment (mmogd,
// examples/live) provisions exactly as the trace-driven simulator does.
package operator

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
)

// Deadline sentinels for ObserveUntil.
var (
	// ErrObserveAborted means the deadline passed before the snapshot
	// was ingested: no operator state changed, and the caller may
	// safely re-submit the same snapshot.
	ErrObserveAborted = errors.New("operator: observe aborted before ingestion")
	// ErrAcquireAborted means the snapshot WAS ingested and scored
	// (the tick counter advanced and the predictors saw the sample)
	// but the deadline passed before the lease acquisition, which was
	// skipped. The snapshot must not be re-submitted; the next tick's
	// acquisition covers the standing shortfall.
	ErrAcquireAborted = errors.New("operator: lease acquisition aborted")
)

// Config assembles an operator.
type Config struct {
	// Game fixes the update model, resource profile, and latency
	// tolerance.
	Game *mmog.Game
	// Origin is where the game's players are (for latency matching).
	Origin geo.Point
	// Predictor builds one predictor per monitored zone.
	Predictor predict.Factory
	// Matcher is the data-center ecosystem to lease from.
	Matcher *ecosystem.Matcher
	// Obs, when non-nil, streams the operator's telemetry (Observe
	// timing, provisioning counters, flight-recorder events) into the
	// given observability bundle. Write-only: enabling it changes no
	// operator behavior or metric.
	Obs *obs.Obs
}

// Operator runs the predict→demand→lease cycle for one game.
type Operator struct {
	cfg   Config
	zones *predict.ZoneSet
	// step leases for the whole game: the lease book, the rejection
	// backoff, and the acquisition counters. The operator sends one
	// request per tick, so the per-tick failover budget always admits
	// it and the step never parks a failover.
	step   provision.Step
	counts provision.Counts
	ticks  int
	// running totals for Metrics.
	shortfallSum float64
	overSum      float64
	overTicks    int
	events       int
	lastForecast []float64
	// lastLoads carries the last monitoring sample that arrived per
	// zone; NaN and infinite samples are carried forward (LOCF) so a
	// monitoring dropout never poisons the predictors.
	lastLoads []float64
	cleanBuf  []float64
	// droppedSamples counts the samples carried forward.
	droppedSamples int
	// last tick's acquisition activity, for callers (the daemon's
	// circuit breaker) that attribute grant health to centers.
	// lastGranted is reused scratch; lastRejected aliases the matcher's
	// per-call scratch. Both are valid only until the next Observe.
	lastGranted  []string
	lastRejected []string
	// oo streams telemetry when Config.Obs is set (nil otherwise; all
	// its methods no-op on nil).
	oo *opObs
}

// New validates the configuration and returns an operator.
func New(cfg Config) (*Operator, error) {
	if cfg.Game == nil {
		return nil, fmt.Errorf("operator: game required")
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("operator: predictor required")
	}
	if cfg.Matcher == nil {
		return nil, fmt.Errorf("operator: matcher required")
	}
	o := &Operator{cfg: cfg, oo: newOpObs(cfg.Obs, cfg.Game.Name)}
	o.step = provision.New(provision.Config{
		Matcher: cfg.Matcher, Tag: cfg.Game.Name, Origin: cfg.Origin,
		MaxDistanceKm: cfg.Game.LatencyKm,
		Counts:        &o.counts, Telemetry: o.oo.telemetry(),
	})
	return o, nil
}

// Metrics summarizes the operator's run so far.
type Metrics struct {
	// Ticks counts Observe calls; every one but the first is scored.
	Ticks int
	// AvgOverPct is the mean CPU over-allocation Ω−100 (Equation 1).
	AvgOverPct float64
	// AvgShortfall is the mean unserved CPU demand in units.
	AvgShortfall float64
	// Events counts ticks with Υ (Equation 2) below −1% on any resource.
	Events int
	// DroppedSamples counts monitoring samples (NaN or infinite)
	// carried forward instead of observed.
	DroppedSamples int
	// Failovers counts ticks that re-acquired capacity lost to a
	// failed or degraded center, excluding that center from the retry.
	Failovers int
	// Rejections and PartialGrants count injected grant faults
	// encountered; Retries the backed-off re-attempts they caused.
	Rejections    int
	PartialGrants int
	Retries       int
}

// defaultTick is the paper's monitoring interval, the horizon Observe
// leases for.
const defaultTick = 2 * time.Minute

// Observe ingests one monitoring snapshot (per-zone loads at time
// now), scores the allocation that was in force against it, and leases
// toward the forecast for the next snapshot, one two-minute tick
// later. The zone count is fixed by the first call.
//
// Observe degrades gracefully under faults: NaN and infinite samples
// (monitoring dropouts) are replaced by each zone's last observation so the
// predictors keep a coherent history; leases that vanish before their
// expiry (their center failed) trigger a same-tick failover that
// excludes the failed centers from the re-acquisition; and injected
// grant rejections back off boundedly (1, 2, 4, then 8 ticks) instead
// of hammering the ecosystem every tick. The leasing rules are
// provision.Step's.
func (o *Operator) Observe(now time.Time, zoneLoads []float64) error {
	return o.ObserveUntil(now, now.Add(defaultTick), time.Time{}, 0, zoneLoads)
}

// ObserveUntil is Observe with an explicit horizon, a deadline and a
// trace parent. It leases so that the allocation in force at next, the
// instant of the following snapshot, covers the forecast. The wall
// clock is checked against deadline (the zero Time: none) at the two
// points where aborting leaves the operator coherent — before any
// state is touched (ErrObserveAborted: the snapshot was not consumed)
// and between the forecast and the lease acquisition
// (ErrAcquireAborted: the snapshot was consumed, the acquisition is
// deferred to the next tick). The stages themselves are not
// interruptible; the granularity is one stage, which bounds one call
// at roughly the cost of a predict pass plus a matcher walk. With
// tracing on, the cycle's span hangs off parent (0 roots it), so the
// daemon's request span chains to every acquire and event span.
func (o *Operator) ObserveUntil(now, next, deadline time.Time, parent obs.SpanID, zoneLoads []float64) error {
	if passed(deadline) {
		return ErrObserveAborted
	}
	if o.zones != nil && len(zoneLoads) != o.zones.Len() {
		// Reject before touching any state: a malformed snapshot must
		// not advance the tick counter, expire leases, or skew metrics.
		return fmt.Errorf("operator: observed %d zones, want %d", len(zoneLoads), o.zones.Len())
	}
	if o.zones == nil {
		if len(zoneLoads) == 0 {
			return fmt.Errorf("operator: first snapshot has no zones")
		}
		o.zones = predict.NewZoneSet(o.cfg.Predictor, len(zoneLoads))
		o.lastLoads = make([]float64, len(zoneLoads))
		o.cleanBuf = make([]float64, len(zoneLoads))
	}
	// This tick starts with no acquisition activity; a tick that sends
	// no request (satisfied demand, backoff, an abort) leaves it empty.
	o.lastGranted = o.lastGranted[:0]
	o.lastRejected = nil

	start := o.oo.now()
	o.oo.beginObserve(start, o.ticks, parent)
	defer o.oo.observed(start)
	// The game's own ended leases go back by its own clock; another
	// game on the same centers may run behind it.
	o.step.Expire(now)

	// Carry the last observation forward across monitoring dropouts:
	// a NaN or infinite sample is no entity count.
	clean := o.cleanBuf[:0]
	for i, v := range zoneLoads {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.droppedSamples++
			o.oo.droppedSample(o.ticks, i)
			v = o.lastLoads[i]
		} else {
			o.lastLoads[i] = v
		}
		clean = append(clean, v)
	}

	// Score the game as one requester from its second snapshot on (DESIGN
	// §7, rule 5); Prune notes leases whose centers failed under us.
	alloc := o.step.Prune(now)
	load := o.cfg.Game.DemandForZones(clean)
	if o.ticks > 0 {
		var short datacenter.Vector
		for r := range short {
			if d := alloc[r] - load[r]; d < 0 {
				short[r] = d
			}
		}
		s := provision.ScoreTick(alloc, load, short)
		if s.Loaded[datacenter.CPU] {
			o.overSum += s.Over[datacenter.CPU]
			o.overTicks++
		}
		o.shortfallSum -= short[datacenter.CPU]
		if s.Event {
			o.events++
			o.oo.disruptiveTick(o.ticks, s.Worst)
		}
	}
	o.ticks++
	o.oo.tick(alloc[datacenter.CPU], load[datacenter.CPU])

	// Forecast the next interval and lease the gap.
	if err := o.zones.Observe(clean); err != nil {
		return err
	}
	o.lastForecast = o.zones.PredictEachInto(o.lastForecast)
	if passed(deadline) {
		return ErrAcquireAborted
	}
	want := o.cfg.Game.DemandForZones(o.lastForecast)
	need := want.Sub(o.step.AllocAt(next)).ClampNonNegative()
	a := o.step.Acquire(o.ticks, now, need, true)
	for _, l := range a.Leases {
		o.lastGranted = append(o.lastGranted, l.Center.Name)
	}
	o.lastRejected = a.Outcome.RejectedBy
	return nil
}

// passed reports whether the wall clock has reached deadline; the zero
// Time never passes.
func passed(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// Forecast returns the latest per-zone forecast (nil before the first
// Observe). The returned slice is reused by the next Observe; callers
// that retain it across ticks must copy.
func (o *Operator) Forecast() []float64 { return o.lastForecast }

// GrantActivity reports the most recent Observe's acquisition by
// center: the centers that granted a lease and the centers whose
// grants the fault injector rejected. Both are empty on ticks that
// attempted no acquisition. The slices are scratch reused by the next
// Observe — callers that retain them must copy.
func (o *Operator) GrantActivity() (granted, rejected []string) {
	return o.lastGranted, o.lastRejected
}

// Metrics returns the running summary.
func (o *Operator) Metrics() Metrics {
	m := Metrics{
		Ticks: o.ticks, Events: o.events,
		DroppedSamples: o.droppedSamples,
		Failovers:      o.counts.Failovers,
		Rejections:     o.counts.Rejections,
		PartialGrants:  o.counts.PartialGrants,
		Retries:        o.counts.Retries,
	}
	if o.overTicks > 0 {
		m.AvgOverPct = o.overSum / float64(o.overTicks)
	}
	if o.ticks > 1 {
		m.AvgShortfall = o.shortfallSum / float64(o.ticks-1)
	}
	return m
}

// ZoneCount returns the number of monitored zones (fixed by the first
// Observe or a restored checkpoint; 0 before either).
func (o *Operator) ZoneCount() int {
	if o.zones == nil {
		return 0
	}
	return o.zones.Len()
}

// LeaseView describes one live lease for ops surfaces (the daemon's
// GET /v1/leases). It carries values, not pointers, so callers can
// serialize it without touching the operator again.
type LeaseView struct {
	Center  string    `json:"center"`
	CPU     float64   `json:"cpu_units"`
	Start   time.Time `json:"start"`
	Expires time.Time `json:"expires"`
}

// LeaseViews snapshots the leases active at now, sorted in acquisition
// order. The returned slice is freshly allocated.
func (o *Operator) LeaseViews(now time.Time) []LeaseView {
	var out []LeaseView
	for _, l := range o.step.Leases() {
		if l.Active(now) && l.Center != nil {
			out = append(out, LeaseView{
				Center:  l.Center.Name,
				CPU:     l.Alloc[datacenter.CPU],
				Start:   l.Start,
				Expires: l.Expires,
			})
		}
	}
	return out
}
