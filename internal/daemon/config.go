// Package daemon implements the long-running provisioning service of
// cmd/mmogd: an HTTP ingestion API wrapped around internal/operator,
// with admission control and backpressure (a bounded ingest queue per
// game that sheds with 429s when observe falls behind), hot config
// reload (the cadence and fault-injection knobs swap atomically,
// validated before the swap), and graceful drain (stop admitting,
// flush in-flight ticks, release leases, flush a final checkpoint).
// examples/live is the embedded, single-process variant of the same
// loop; this package is the service the ROADMAP's live-service item
// asks for.
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"time"

	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/slo"
)

// GameSpec declares one game the daemon provisions for. The zone count
// is not part of the spec — the first accepted observation (or a
// restored checkpoint) fixes it.
type GameSpec struct {
	// Name identifies the game in the API and in checkpoint paths.
	Name string
	// Genre fixes the update model and latency tolerance.
	Genre mmog.Genre
	// Origin is where the game's players are (for latency matching).
	Origin geo.Point
}

// clockStart anchors each game's virtual monitoring clock: 2008-03-01
// 00:00 UTC, the paper's trace epoch.
var clockStart = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)

// Config assembles a daemon. Only Games, Predictor, and Matcher are
// required; everything else has serviceable defaults.
type Config struct {
	// Games are the provisioned games; each gets its own operator,
	// ingest queue, and worker.
	Games []GameSpec
	// Predictor builds the per-zone predictors of every operator.
	Predictor predict.Factory
	// Matcher is the shared data-center ecosystem. The daemon
	// serializes all access to it (the matcher is not concurrency-safe)
	// and installs its own fault injector and decision logs on it.
	Matcher *ecosystem.Matcher
	// Obs streams the daemon's telemetry; nil gets a fresh bundle (the
	// daemon's metrics are always on — they are its ops surface).
	Obs *obs.Obs
	// QueueDepth bounds each game's ingest queue; defaults to 64.
	// When the queue is full, observations are shed with 429.
	QueueDepth int
	// MaxBodyBytes bounds one request body; defaults to 1 MiB.
	MaxBodyBytes int64
	// CheckpointDir enables crash safety: each game checkpoints into
	// <dir>/<game> on the hot config's cadence and once more at drain.
	// An existing checkpoint is restored at startup and its lease book
	// reconciled. Empty disables.
	CheckpointDir string
	// Hot is the initial hot-reloadable configuration; the zero value
	// means DefaultHot().
	Hot HotConfig
	// ExplainDepth, when > 0, enables decision provenance: each game
	// gets its own decision log of ExplainDepth records, which the
	// shared matcher writes during that game's observe passes and GET
	// /v1/explain serves. Each game numbers its decisions 1, 2, 3…
	// Write-only like the rest of the telemetry: provisioning output
	// is byte-identical with explain on or off. 0 disables.
	ExplainDepth int
}

// HotConfig is the subset of the configuration that POST /v1/config or
// SIGHUP swaps atomically while the daemon runs: the predictor and
// checkpoint cadences and the fault-injection knobs. A candidate is
// validated before the swap; a rejected candidate leaves the previous
// configuration active.
type HotConfig struct {
	// TickSeconds is the virtual monitoring interval one accepted
	// sample advances a game's clock by — the predictor cadence: the
	// forecast horizon is one tick. Must be at least 1ns and below
	// math.MaxInt64 ns as a time.Duration.
	TickSeconds float64 `json:"tick_seconds"`
	// CheckpointEvery is the number of ticks between cadence
	// checkpoints; 0 disables cadence saves (the drain checkpoint
	// still happens). Must be >= 0.
	CheckpointEvery int `json:"checkpoint_every"`
	// ObserveTimeoutMS bounds one observe→predict→acquire pass; an
	// expired deadline skips the unfinished stages (see
	// operator.ObserveUntil) and counts an observe timeout. 0 disables.
	ObserveTimeoutMS int `json:"observe_timeout_ms"`
	// ObserveDelayMS injects an artificial processing delay per
	// observed sample — the fault knob that makes backpressure
	// reproducible (a slow observe loop on demand). Must be >= 0.
	ObserveDelayMS int `json:"observe_delay_ms"`
	// FaultRejectProb / FaultPartialProb inject hoster-side grant
	// faults: each center grant attempt is rejected outright, or
	// trimmed to a uniform 25–75%, with these probabilities.
	FaultRejectProb  float64 `json:"fault_reject_prob"`
	FaultPartialProb float64 `json:"fault_partial_prob"`
	// FaultDropoutProb is the probability that one zone's sample is
	// replaced by NaN before the observe (a monitoring dropout the
	// operator bridges with LOCF).
	FaultDropoutProb float64 `json:"fault_dropout_prob"`
	// FaultSeed seeds the injection streams; changing it on reload
	// reseeds them.
	FaultSeed uint64 `json:"fault_seed"`
	// BreakerThreshold arms the per-region circuit breaker: a region
	// whose centers reject this many consecutive acquisition passes has
	// its circuit opened, and observations for games homed there are
	// refused with a typed 503 (region_unavailable) until a probe
	// succeeds. 0 disables the breaker.
	BreakerThreshold int `json:"breaker_threshold"`
	// BreakerCooldown paces half-open probes on an open circuit: after
	// this many refused observations the next one is admitted as a
	// probe. Must be >= 1 when the breaker is armed.
	BreakerCooldown int `json:"breaker_cooldown"`
	// SLORules arms the burn-rate alerting engine (internal/slo) over
	// the daemon's metrics, evaluated on each game's virtual tick
	// clock. Empty (the default) disables the engine entirely; rules
	// swap with the rest of the hot config, and the engine is rebuilt
	// (alert state reset) when they change.
	SLORules []slo.RuleConfig `json:"slo_rules,omitempty"`
}

// DecodeHot decodes a partial hot configuration from r on top of base:
// the fields the document names replace base's, the others keep their
// values, and an unknown field is an error. POST /v1/config and mmogd's
// -config file (at start and on SIGHUP) share it. The result owns its
// SLO rules: the JSON decoder fills slice elements in place, which must
// not write through to base's, the active configuration's included.
func DecodeHot(r io.Reader, base HotConfig) (HotConfig, error) {
	base.SLORules = slices.Clone(base.SLORules)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return HotConfig{}, err
	}
	return base, nil
}

// DefaultHot returns the hot configuration the daemon starts with when
// none is given: the paper's two-minute tick, checkpoints every 30
// ticks, a one-second observe deadline, and no fault injection.
func DefaultHot() HotConfig {
	return HotConfig{
		TickSeconds:      120,
		CheckpointEvery:  30,
		ObserveTimeoutMS: 1000,
		FaultSeed:        1,
	}
}

// maxMS is the largest millisecond count a time.Duration can hold.
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// Validate rejects hot configurations outside the model's domain,
// including durations a time.Duration cannot represent: a tick that
// truncates below 1ns would stop the virtual clock, and an overflowing
// one wraps negative.
func (h HotConfig) Validate() error {
	// The negated range test also rejects NaN.
	if ns := h.TickSeconds * float64(time.Second); !(ns >= 1 && ns < 1<<63) {
		return fmt.Errorf("daemon: tick_seconds must be in [1e-9, %v), got %v", float64(1<<63)/1e9, h.TickSeconds)
	}
	if h.CheckpointEvery < 0 {
		return fmt.Errorf("daemon: checkpoint_every must be >= 0, got %d", h.CheckpointEvery)
	}
	if h.ObserveTimeoutMS < 0 || int64(h.ObserveTimeoutMS) > maxMS {
		return fmt.Errorf("daemon: observe_timeout_ms must be in [0, %d], got %d", maxMS, h.ObserveTimeoutMS)
	}
	if h.ObserveDelayMS < 0 || int64(h.ObserveDelayMS) > maxMS {
		return fmt.Errorf("daemon: observe_delay_ms must be in [0, %d], got %d", maxMS, h.ObserveDelayMS)
	}
	if h.BreakerThreshold < 0 {
		return fmt.Errorf("daemon: breaker_threshold must be >= 0, got %d", h.BreakerThreshold)
	}
	if h.BreakerCooldown < 0 {
		return fmt.Errorf("daemon: breaker_cooldown must be >= 0, got %d", h.BreakerCooldown)
	}
	if h.BreakerThreshold > 0 && h.BreakerCooldown < 1 {
		return fmt.Errorf("daemon: breaker_cooldown must be >= 1 when breaker_threshold is set, got %d", h.BreakerCooldown)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"fault_reject_prob", h.FaultRejectProb},
		{"fault_partial_prob", h.FaultPartialProb},
		{"fault_dropout_prob", h.FaultDropoutProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("daemon: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	if err := slo.ValidateRules(h.SLORules); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

// Tick returns the virtual monitoring interval as a duration.
func (h HotConfig) Tick() time.Duration {
	return time.Duration(h.TickSeconds * float64(time.Second))
}

// ObserveTimeout returns the per-observe deadline (0 = none).
func (h HotConfig) ObserveTimeout() time.Duration {
	return time.Duration(h.ObserveTimeoutMS) * time.Millisecond
}

// ObserveDelay returns the injected per-observe delay (0 = none).
func (h HotConfig) ObserveDelay() time.Duration {
	return time.Duration(h.ObserveDelayMS) * time.Millisecond
}

func (c *Config) withDefaults() error {
	if len(c.Games) == 0 {
		return fmt.Errorf("daemon: at least one game required")
	}
	seen := map[string]bool{}
	for _, g := range c.Games {
		if g.Name == "" {
			return fmt.Errorf("daemon: game with empty name")
		}
		if seen[g.Name] {
			return fmt.Errorf("daemon: duplicate game %q", g.Name)
		}
		seen[g.Name] = true
	}
	if c.Predictor == nil {
		return fmt.Errorf("daemon: predictor required")
	}
	if c.Matcher == nil {
		return fmt.Errorf("daemon: matcher required")
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	// DeepEqual, not ==: the SLO rule slice makes HotConfig
	// non-comparable.
	if reflect.DeepEqual(c.Hot, HotConfig{}) {
		c.Hot = DefaultHot()
	}
	return c.Hot.Validate()
}
