// Package slo is the daemon's online SLO engine: multi-window
// burn-rate alerting (the Google SRE workbook recipe) evaluated over
// the cumulative counts the daemon hands it with each evaluation, on
// whatever clock the caller injects — the daemon uses each game's
// virtual tick clock, so evaluation is deterministic and independent
// of wall time.
//
// A rule watches one bad/total signal (shed rate, slow observe loops,
// observe failures, SLA-breach ticks, grant rejections), derives the
// bad-event ratio over a short and a long trailing window, and divides
// each by the objective (the budgeted bad fraction) to get a burn
// rate. The alert fires when BOTH windows burn at or above the
// threshold — the long window guards against blips, the short window
// both speeds detection and lets the alert resolve quickly once the
// signal recovers (the classic single-window "alert stays red for an
// hour after the incident" failure). Firing and resolving emit
// slo_alert flight-recorder events and flip the
// mmogdc_slo_alert_active gauge that scrapes and mmogaudit's
// alert-quality scoring consume.
//
// Like the rest of the obs layer the engine is write-only telemetry:
// it reads counts and publishes alerts, but nothing in the
// provisioning path reads it back, so enabling rules cannot change a
// run's output (the daemon's bit-identical test pins this).
package slo

import (
	"fmt"
	"sync"
	"time"

	"mmogdc/internal/obs"
)

// Signal names a rule can watch. All are per-game ratios of "bad"
// events to total opportunities, computed from a Reading.
const (
	// SignalShedRate: observations shed with 429 / observations offered
	// (shed + ingested) — the backpressure SLO.
	SignalShedRate = "shed_rate"
	// SignalObserveLatency: observe-loop completions slower than
	// LatencyObjectiveMS / all completions — the tail-latency SLO over
	// Reading.Loop.
	SignalObserveLatency = "observe_latency"
	// SignalObserveFailures: observe passes that timed out or failed /
	// observations ingested.
	SignalObserveFailures = "observe_failures"
	// SignalBreachRate: disruptive (SLA-breaching) ticks / all operator
	// ticks — the paper's availability measure.
	SignalBreachRate = "breach_rate"
	// SignalRejectionRate: vetoed grant attempts / operator ticks.
	SignalRejectionRate = "rejection_rate"
)

var signals = map[string]bool{
	SignalShedRate:        true,
	SignalObserveLatency:  true,
	SignalObserveFailures: true,
	SignalBreachRate:      true,
	SignalRejectionRate:   true,
}

// RuleConfig is one hot-reloadable burn-rate rule, JSON-shaped for the
// daemon's config file (slo_rules array).
type RuleConfig struct {
	// Name labels the alert (event subject, gauge label). Required,
	// unique across the rule set.
	Name string `json:"name"`
	// Signal is one of the Signal* constants.
	Signal string `json:"signal"`
	// Game scopes the rule; empty means the daemon's first game.
	Game string `json:"game,omitempty"`
	// Objective is the error budget as a bad fraction in (0, 1): 0.01
	// means 99% of events may not be bad. Burn rate is the observed bad
	// ratio divided by this.
	Objective float64 `json:"objective"`
	// LatencyObjectiveMS is the latency target for observe_latency:
	// completions slower than this are bad. Ignored by other signals.
	LatencyObjectiveMS float64 `json:"latency_objective_ms,omitempty"`
	// ShortWindowS and LongWindowS are the two trailing windows in
	// seconds of the evaluation clock (for the daemon: virtual game
	// seconds, i.e. ShortWindowS/tick_seconds ticks).
	ShortWindowS float64 `json:"short_window_s"`
	LongWindowS  float64 `json:"long_window_s"`
	// BurnFactor is the burn-rate threshold both windows must meet or
	// exceed to fire; <= 0 defaults to 1 (exactly exhausting the
	// budget).
	BurnFactor float64 `json:"burn_factor,omitempty"`
}

func (rc RuleConfig) factor() float64 {
	if rc.BurnFactor <= 0 {
		return 1
	}
	return rc.BurnFactor
}

// Validate rejects a malformed rule with a field-specific error.
func (rc RuleConfig) Validate() error {
	if rc.Name == "" {
		return fmt.Errorf("slo rule: name is required")
	}
	if !signals[rc.Signal] {
		return fmt.Errorf("slo rule %q: unknown signal %q", rc.Name, rc.Signal)
	}
	if !(rc.Objective > 0 && rc.Objective < 1) {
		return fmt.Errorf("slo rule %q: objective must be in (0, 1), got %v", rc.Name, rc.Objective)
	}
	if rc.ShortWindowS <= 0 || rc.LongWindowS <= 0 {
		return fmt.Errorf("slo rule %q: windows must be > 0", rc.Name)
	}
	if rc.ShortWindowS >= rc.LongWindowS {
		return fmt.Errorf("slo rule %q: short window (%vs) must be shorter than long (%vs)",
			rc.Name, rc.ShortWindowS, rc.LongWindowS)
	}
	if rc.Signal == SignalObserveLatency && rc.LatencyObjectiveMS <= 0 {
		return fmt.Errorf("slo rule %q: observe_latency needs latency_objective_ms > 0", rc.Name)
	}
	return nil
}

// ValidateRules validates each rule and rejects duplicate names.
func ValidateRules(rules []RuleConfig) error {
	seen := map[string]bool{}
	for _, rc := range rules {
		if err := rc.Validate(); err != nil {
			return err
		}
		if seen[rc.Name] {
			return fmt.Errorf("slo rule %q: duplicate name", rc.Name)
		}
		seen[rc.Name] = true
	}
	return nil
}

// Reading is one game's cumulative counts at one evaluation, as their
// owners hold them: the daemon's admission and observe-loop counts and
// the operator's Metrics. Rules take deltas between readings, so a
// count that started above zero (a restored operator's) burns alike.
type Reading struct {
	// Shed, Ingested, Timeouts and Errors count the observations the
	// daemon shed with 429, admitted, cut short at the observe deadline
	// and failed outright.
	Shed, Ingested, Timeouts, Errors int64
	// Loop is the daemon's admission-to-observed latency histogram.
	Loop *obs.Histogram
	// Ticks, Events and Rejections are the operator's Metrics fields:
	// snapshots scored, disruptive ticks and vetoed grant attempts.
	Ticks, Events, Rejections int
}

// point is one cumulative reading at one evaluation instant.
type point struct {
	t          time.Time
	bad, total float64
}

// ruleState is one rule's compiled windows, trailing readings, and
// alert latch.
type ruleState struct {
	cfg    RuleConfig
	factor float64
	short  time.Duration
	long   time.Duration
	// bound is observe_latency's objective in seconds.
	bound float64

	ring   []point // trailing readings, pruned past the long window
	firing bool

	active    *obs.Gauge
	burnShort *obs.Gauge
	burnLong  *obs.Gauge
}

// counts reads the rule's signal from r as a cumulative (bad, total)
// pair.
func (rs *ruleState) counts(r Reading) (bad, total float64) {
	switch rs.cfg.Signal {
	case SignalShedRate:
		return float64(r.Shed), float64(r.Shed + r.Ingested)
	case SignalObserveLatency:
		n := r.Loop.Count()
		return float64(n - r.Loop.CountAtOrBelow(rs.bound)), float64(n)
	case SignalObserveFailures:
		return float64(r.Timeouts + r.Errors), float64(r.Ingested)
	case SignalBreachRate:
		return float64(r.Events), float64(r.Ticks)
	default: // SignalRejectionRate; ValidateRules admits no other
		return float64(r.Rejections), float64(r.Ticks)
	}
}

// Engine evaluates a rule set. Safe for concurrent Eval calls (the
// daemon has one worker goroutine per game); nil engines are no-ops,
// which is how "no rules configured" is represented.
type Engine struct {
	mu     sync.Mutex
	rec    *obs.Recorder
	byGame map[string][]*ruleState
	all    []*ruleState
}

// NewEngine compiles rules, registering each rule's alert and
// burn-rate gauges in reg and resolving empty Game fields to
// defaultGame, and will emit alert transitions to rec.
func NewEngine(rules []RuleConfig, reg *obs.Registry, rec *obs.Recorder, defaultGame string) (*Engine, error) {
	if err := ValidateRules(rules); err != nil {
		return nil, err
	}
	e := &Engine{rec: rec, byGame: map[string][]*ruleState{}}
	for _, rc := range rules {
		game := rc.Game
		if game == "" {
			game = defaultGame
		}
		rs := &ruleState{
			cfg:    rc,
			factor: rc.factor(),
			short:  time.Duration(rc.ShortWindowS * float64(time.Second)),
			long:   time.Duration(rc.LongWindowS * float64(time.Second)),
			bound:  rc.LatencyObjectiveMS / 1e3,
			active: reg.Gauge("mmogdc_slo_alert_active",
				"1 while the rule's multi-window burn-rate alert is firing.",
				obs.L("rule", rc.Name)),
			burnShort: reg.Gauge("mmogdc_slo_burn_rate",
				"Burn rate (bad ratio over the window / objective) per rule and window.",
				obs.L("rule", rc.Name), obs.L("window", "short")),
			burnLong: reg.Gauge("mmogdc_slo_burn_rate",
				"Burn rate (bad ratio over the window / objective) per rule and window.",
				obs.L("rule", rc.Name), obs.L("window", "long")),
		}
		rs.active.Set(0)
		e.byGame[game] = append(e.byGame[game], rs)
		e.all = append(e.all, rs)
	}
	return e, nil
}

// Eval feeds game's reading r to every rule scoped to game, stamped
// with the caller's clock (the daemon passes the observation's virtual
// game time and tick), and fires or resolves alerts. A nil engine is a
// no-op.
func (e *Engine) Eval(game string, tick int, now time.Time, r Reading) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.byGame[game] {
		rs.eval(e.rec, tick, now, r)
	}
}

func (rs *ruleState) eval(rec *obs.Recorder, tick int, now time.Time, r Reading) {
	bad, total := rs.counts(r)
	rs.ring = append(rs.ring, point{t: now, bad: bad, total: total})
	// Prune, but keep the newest reading at or before the long-window
	// cutoff: it is the baseline long deltas subtract from.
	cut := now.Add(-rs.long)
	base := 0
	for base+1 < len(rs.ring) && !rs.ring[base+1].t.After(cut) {
		base++
	}
	if base > 0 {
		rs.ring = append(rs.ring[:0], rs.ring[base:]...)
	}

	cur := rs.ring[len(rs.ring)-1]
	bShort, okShort := rs.burnOver(cur, rs.short)
	bLong, okLong := rs.burnOver(cur, rs.long)
	rs.burnShort.Set(bShort)
	rs.burnLong.Set(bLong)

	switch {
	case !rs.firing && okShort && okLong && bShort >= rs.factor && bLong >= rs.factor:
		rs.firing = true
		rs.active.Set(1)
		rec.Record(obs.Event{Tick: tick, Kind: obs.EventSLOAlert,
			Subject: rs.cfg.Name, Detail: "firing", Value: bShort})
	case rs.firing && okShort && bShort < rs.factor:
		rs.firing = false
		rs.active.Set(0)
		rec.Record(obs.Event{Tick: tick, Kind: obs.EventSLOAlert,
			Subject: rs.cfg.Name, Detail: "resolved", Value: bShort})
	}
}

// burnOver computes the burn rate over the trailing window w ending at
// cur. The baseline is the newest reading at least w old; while the
// ring is younger than w the oldest reading stands in, so a fresh
// engine can fire before a full long window of history exists —
// detection speed is the point. ok is false when there is no earlier
// reading or no events happened in the window.
func (rs *ruleState) burnOver(cur point, w time.Duration) (burn float64, ok bool) {
	cut := cur.t.Add(-w)
	var base *point
	for i := range rs.ring {
		if rs.ring[i].t.After(cut) {
			break
		}
		base = &rs.ring[i]
	}
	if base == nil && rs.ring[0].t.Before(cur.t) {
		base = &rs.ring[0]
	}
	if base == nil {
		return 0, false
	}
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0, false
	}
	ratio := (cur.bad - base.bad) / dTotal
	if ratio < 0 {
		ratio = 0
	}
	return ratio / rs.cfg.Objective, true
}

// Deactivate clears every firing alert's gauge without emitting
// resolved events — called when a hot reload replaces the rule set, so
// a retired rule cannot leave a stuck "active" series behind.
func (e *Engine) Deactivate() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.all {
		rs.firing = false
		rs.active.Set(0)
	}
}
