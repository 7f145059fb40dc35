package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/operator"
	"mmogdc/internal/slo"
	"mmogdc/internal/xrand"
)

// ErrDrainTimeout is returned by Drain when the deadline expires
// before the in-flight work flushed; cmd/mmogd hard-exits with a
// distinct code on it.
var ErrDrainTimeout = errors.New("daemon: drain deadline exceeded")

// sample is one admitted observation waiting in a game's ingest queue.
// Its values buffer comes from valuesPool, and the worker returns it
// after the observe pass. It is a pointer, not a slice header, because
// a sample sits QueueDepth times in the channel's buffer: each byte of
// it is 4 KB of live heap at -queue 4096.
type sample struct {
	values *[]float64
	enq    time.Time
	// span is the admitting HTTP request's span ID (0 when tracing is
	// off): the queue-wait and observe spans hang off it, so a merged
	// trace shows the whole request-scoped critical path.
	span obs.SpanID
}

// game is one provisioned game's runtime state: the operator, its
// bounded ingest queue, the worker metrics, and the checkpoint store.
type game struct {
	spec GameSpec
	// nameJSON is spec.Name as json.Encoder writes it, HTML escaping
	// included: the 202 body carries it.
	nameJSON []byte
	// region is the failure domain the game is homed in
	// (geo.RegionOf(spec.Origin)); the circuit breaker gates admission
	// by it.
	region string
	mgr    *checkpoint.Manager

	// op, now, and dropRng are guarded by Daemon.ecoMu (the operator
	// shares the matcher with every other game).
	op      *operator.Operator
	now     time.Time
	dropRng *xrand.Rand

	// Restore outcome (nil when the game started fresh).
	rec          *operator.Reconciliation
	restoredTick int

	// qmu guards queue against the close in BeginDrain; admission
	// holds it shared, the drain exclusively.
	qmu    sync.RWMutex
	queue  chan sample
	closed bool

	// explain is the game's decision log when Config.ExplainDepth is
	// set (nil otherwise): the shared matcher records into it during
	// this game's observe passes. Guarded by ecoMu.
	explain *ecosystem.DecisionLog

	// zones is the expected zone count (0 until the first accepted
	// observation or a restored checkpoint fixes it).
	zones atomic.Int64
	// tick numbers admitted observations (the value 202 responses
	// report).
	tick atomic.Int64

	mIngest     *obs.Counter
	mShed       *obs.Counter
	mTimeouts   *obs.Counter
	mErrors     *obs.Counter
	mCkpt       *obs.Counter
	mCkptErrs   *obs.Counter
	mQueueDepth *obs.Gauge
	mLoop       *obs.Histogram
}

// Daemon is the running provisioning service. Build one with New,
// expose it with Serve (or Handler), and stop it with Drain.
type Daemon struct {
	cfg   Config
	hot   atomic.Pointer[HotConfig]
	obs   *obs.Obs
	games map[string]*game
	order []string

	// ecoMu serializes every touch of the shared matcher and the
	// operators behind it — the ecosystem is single-threaded by
	// contract, so observes, ops reads, and the drain all line up here.
	ecoMu sync.Mutex

	inj *grantInjector
	brk *breaker

	// slo is the burn-rate alert engine compiled from the hot config's
	// rules (nil when none are configured — the common case). Swapped
	// whole on reload; Eval is internally locked, so the per-game
	// workers evaluate without holding ecoMu.
	slo atomic.Pointer[slo.Engine]

	draining  atomic.Bool
	drainOnce sync.Once
	wg        sync.WaitGroup

	// seriesMu guards the lazily resolved series below. It is not ecoMu,
	// so a refused or answered request never waits for an observe pass.
	seriesMu  sync.Mutex
	mRejected map[string]*obs.Counter
	mRequests map[requestSeries]*obs.Histogram

	mReloadOK     *obs.Counter
	mReloadBad    *obs.Counter
	mDraining     *obs.Gauge
	mDrainSeconds *obs.Gauge
}

// New validates cfg, restores any checkpointed state, installs the
// grant-fault injector on the matcher, and starts one ingest worker
// per game. The daemon is live (but unreachable) until Serve. Every
// error it returns begins with "daemon: ".
func New(cfg Config) (*Daemon, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		obs:       cfg.Obs,
		games:     make(map[string]*game, len(cfg.Games)),
		mRejected: map[string]*obs.Counter{},
		mRequests: map[requestSeries]*obs.Histogram{},
	}
	hot := cfg.Hot
	d.hot.Store(&hot)
	d.inj = newGrantInjector(d, hot.FaultSeed)
	cfg.Matcher.SetFaultInjector(d.inj)
	d.brk = newBreaker(d, cfg.Matcher.Centers())

	r := d.obs.Registry
	d.mReloadOK = r.Counter("mmogdc_daemon_reloads_total",
		"Hot config reloads by outcome.", obs.L("outcome", "applied"))
	d.mReloadBad = r.Counter("mmogdc_daemon_reloads_total",
		"Hot config reloads by outcome.", obs.L("outcome", "rejected"))
	d.mDraining = r.Gauge("mmogdc_daemon_draining",
		"1 while the daemon is draining (readyz reports 503).")
	d.mDrainSeconds = r.Gauge("mmogdc_daemon_drain_seconds",
		"Wall-clock duration of the completed drain.")

	for _, spec := range cfg.Games {
		g, err := d.newGame(spec, hot)
		if err != nil {
			return nil, fmt.Errorf("daemon: game %q: %w", spec.Name, err)
		}
		d.games[spec.Name] = g
		d.order = append(d.order, spec.Name)
	}
	// Rules were validated with the rest of the hot config; compiling
	// them needs d.order for the default-game resolution, so it happens
	// after the games exist and before any worker can evaluate.
	if err := d.rebuildSLO(hot); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	for _, name := range d.order {
		d.wg.Add(1)
		go d.worker(d.games[name])
	}
	return d, nil
}

// rebuildSLO swaps in an engine compiled from h's rules (nil when h
// has none) and deactivates the outgoing engine's alerts so a retired
// rule cannot leave a stuck mmogdc_slo_alert_active series.
func (d *Daemon) rebuildSLO(h HotConfig) error {
	var eng *slo.Engine
	if len(h.SLORules) > 0 {
		var err error
		eng, err = slo.NewEngine(h.SLORules, d.obs.Registry, d.obs.Recorder, d.order[0])
		if err != nil {
			return err
		}
	}
	if old := d.slo.Swap(eng); old != nil {
		old.Deactivate()
	}
	return nil
}

func (d *Daemon) newGame(spec GameSpec, hot HotConfig) (*game, error) {
	opCfg := operator.Config{
		Game:      mmog.NewGame(spec.Name, spec.Genre),
		Origin:    spec.Origin,
		Predictor: d.cfg.Predictor,
		Matcher:   d.cfg.Matcher,
		Obs:       d.obs,
	}
	nameJSON, _ := json.Marshal(spec.Name) // a string always encodes
	g := &game{
		spec:         spec,
		nameJSON:     nameJSON,
		region:       geo.RegionOf(spec.Origin),
		queue:        make(chan sample, d.cfg.QueueDepth),
		now:          clockStart,
		dropRng:      xrand.New(hot.FaultSeed ^ 0xd40f001d5eed ^ hashName(spec.Name)),
		restoredTick: -1,
	}
	if d.cfg.ExplainDepth > 0 {
		g.explain = ecosystem.NewDecisionLog(d.cfg.ExplainDepth)
	}
	if d.cfg.CheckpointDir != "" {
		mgr, err := checkpoint.NewManager(filepath.Join(d.cfg.CheckpointDir, spec.Name))
		if err != nil {
			return nil, err
		}
		g.mgr = mgr
		snap, err := mgr.Latest()
		switch {
		case err == nil:
			op, rec, rerr := operator.FromSnapshot(opCfg, snap.Payload)
			if rerr != nil {
				return nil, rerr
			}
			g.op, g.rec, g.restoredTick = op, rec, snap.Tick
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh game.
		default:
			return nil, err
		}
	}
	if g.op == nil {
		op, err := operator.New(opCfg)
		if err != nil {
			return nil, err
		}
		g.op = op
		// A fresh game checkpoints its tick 0 at once, so that a crash
		// before its first cadence checkpoint still restarts through
		// FromSnapshot, which releases the leases the crashed run
		// acquired instead of leaving them held by no game.
		if g.mgr != nil {
			payload, err := op.Snapshot()
			if err == nil {
				err = g.mgr.Save(0, payload)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	ticks := g.op.Metrics().Ticks
	g.tick.Store(int64(ticks))
	g.now = clockStart.Add(time.Duration(ticks) * hot.Tick())
	if z := g.op.ZoneCount(); z > 0 {
		g.zones.Store(int64(z))
	}

	r := d.obs.Registry
	lg := obs.L("game", spec.Name)
	g.mIngest = r.Counter("mmogdc_daemon_ingest_total",
		"Observations admitted into the ingest queue.", lg)
	g.mShed = r.Counter("mmogdc_daemon_shed_total",
		"Observations shed with 429 because the ingest queue was full.", lg)
	g.mTimeouts = r.Counter("mmogdc_daemon_observe_timeouts_total",
		"Observe passes cut short by the observe deadline.", lg)
	g.mErrors = r.Counter("mmogdc_daemon_observe_errors_total",
		"Observe passes that failed outright.", lg)
	g.mCkpt = r.Counter("mmogdc_daemon_checkpoints_total",
		"Cadence and drain checkpoints written.", lg)
	g.mCkptErrs = r.Counter("mmogdc_daemon_checkpoint_errors_total",
		"Checkpoint writes that failed.", lg)
	g.mQueueDepth = r.Gauge("mmogdc_daemon_queue_depth",
		"Observations waiting in the ingest queue.", lg)
	g.mLoop = r.Histogram("mmogdc_daemon_observe_loop_seconds",
		"Admission-to-observed latency of one observation (queue wait plus the observe pass).",
		obs.TimeBuckets, lg)
	return g, nil
}

// hashName folds a game name into the per-game dropout stream seed
// (FNV-1a) so co-hosted games do not share dropout patterns.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Hot returns a copy of the active hot configuration. Its SLO rules
// are the active configuration's, which nothing writes in place:
// DecodeHot copies them before decoding a candidate.
func (d *Daemon) Hot() HotConfig { return *d.hot.Load() }

// Reload validates h and, if valid, swaps it in atomically; an invalid
// candidate is rejected and the previous configuration stays active.
// Changing FaultSeed reseeds the injection streams.
func (d *Daemon) Reload(h HotConfig) error {
	if err := h.Validate(); err != nil {
		d.mReloadBad.Inc()
		return err
	}
	old := d.hot.Load()
	d.hot.Store(&h)
	if h.FaultSeed != old.FaultSeed {
		d.inj.reseed(h.FaultSeed)
		d.ecoMu.Lock()
		for _, name := range d.order {
			g := d.games[name]
			g.dropRng = xrand.New(h.FaultSeed ^ 0xd40f001d5eed ^ hashName(name))
		}
		d.ecoMu.Unlock()
	}
	if !reflect.DeepEqual(old.SLORules, h.SLORules) {
		// Cannot fail: Validate above already accepted the rules.
		_ = d.rebuildSLO(h)
	}
	d.mReloadOK.Inc()
	return nil
}

// Reconciliation returns the named game's restore outcome: the
// checkpoint tick and the lease reconciliation, or ok=false when the
// game started fresh (or is unknown).
func (d *Daemon) Reconciliation(gameName string) (tick int, rec operator.Reconciliation, ok bool) {
	g := d.games[gameName]
	if g == nil || g.rec == nil {
		return 0, operator.Reconciliation{}, false
	}
	return g.restoredTick, *g.rec, true
}

// Admission error sentinels (mapped to typed HTTP errors in server.go).
var (
	errQueueFull = errors.New("daemon: ingest queue full")
	errDraining  = errors.New("daemon: draining")
)

// enqueue admits one observation into g's bounded queue, or reports
// why it cannot: the daemon is draining, or the queue is full (the
// caller sheds with 429 + Retry-After).
func (d *Daemon) enqueue(g *game, values *[]float64, span obs.SpanID) (int64, error) {
	g.qmu.RLock()
	defer g.qmu.RUnlock()
	if g.closed || d.draining.Load() {
		return 0, errDraining
	}
	// The obs clock (System by default) stamps admission so the
	// queue-wait span and the observe-loop histogram share one
	// timebase — and tests with a ManualClock get deterministic waits.
	s := sample{values: values, span: span, enq: d.obs.Now()}
	select {
	case g.queue <- s:
		tick := g.tick.Add(1)
		g.mIngest.Inc()
		g.mQueueDepth.Set(float64(len(g.queue)))
		return tick, nil
	default:
		g.mShed.Inc()
		return 0, errQueueFull
	}
}

// worker drains one game's ingest queue until BeginDrain closes it.
func (d *Daemon) worker(g *game) {
	defer d.wg.Done()
	for s := range g.queue {
		d.observeOne(g, s)
		// The operator copied the values into its own buffer.
		valuesPool.Put(s.values)
	}
}

// observeOne runs one admitted observation through the operator:
// injected dropouts, the observe deadline, the virtual clock advance,
// and the checkpoint cadence.
func (d *Daemon) observeOne(g *game, s sample) {
	hot := d.hot.Load()
	if delay := hot.ObserveDelay(); delay > 0 {
		// The injected slow-observe happens outside the ecosystem lock
		// so the ops endpoints stay responsive while the queue backs up.
		time.Sleep(delay)
	}
	var deadline time.Time
	if t := hot.ObserveTimeout(); t > 0 {
		deadline = time.Now().Add(t)
	}
	// With tracing on, close the request's queue-wait span and open
	// the observe span; the operator parents its cycle under the latter
	// so its cycle/acquire spans chain to the request.
	var obSpan *obs.Span
	if trc := d.obs.Trc(); trc != nil {
		deq := d.obs.Now()
		trc.Complete(obs.SpanRec{
			Name: "daemon.queue_wait", Cat: "daemon", Parent: s.span,
			Subject: g.spec.Name, Start: s.enq, End: deq,
		})
		obSpan = trc.BeginAt("daemon.observe", "daemon", s.span, deq)
		obSpan.SetSubject(g.spec.Name)
	}

	d.ecoMu.Lock()
	values := *s.values
	if p := hot.FaultDropoutProb; p > 0 {
		for i := range values {
			if g.dropRng.Bool(p) {
				values[i] = math.NaN()
			}
		}
	}
	vnow := g.now // this observation's virtual game time
	// The matcher is shared: its decisions during this pass belong in
	// this game's log (none with explain off).
	d.cfg.Matcher.SetDecisionLog(g.explain)
	// The next observation comes one hot tick later: the operator
	// leases for that instant, and the clock advances to it.
	next := g.now.Add(hot.Tick())
	err := g.op.ObserveUntil(g.now, next, deadline, obSpan.ID(), values)
	// Feed the circuit breaker while the scratch slices are still valid
	// (GrantActivity aliases per-tick buffers the next Observe reuses).
	granted, rejected := g.op.GrantActivity()
	d.brk.record(granted, rejected)
	g.now = next
	m := g.op.Metrics()
	ticks := m.Ticks
	var payload []byte
	needCkpt := g.mgr != nil && hot.CheckpointEvery > 0 && ticks > 0 && ticks%hot.CheckpointEvery == 0
	if needCkpt {
		var serr error
		if payload, serr = g.op.Snapshot(); serr != nil {
			needCkpt = false
			g.mCkptErrs.Inc()
		}
	}
	d.ecoMu.Unlock()

	switch {
	case err == nil:
	case errors.Is(err, operator.ErrObserveAborted), errors.Is(err, operator.ErrAcquireAborted):
		g.mTimeouts.Inc()
	default:
		g.mErrors.Inc()
	}
	if needCkpt {
		if err := g.mgr.Save(ticks, payload); err != nil {
			g.mCkptErrs.Inc()
		} else {
			g.mCkpt.Inc()
		}
	}
	// Evaluate the burn-rate rules on the observation's virtual clock
	// (ticks-1 is this observation's tick index — the same axis the
	// operator's sla_breach events use, so mmogaudit can score
	// detection lag).
	if eng := d.slo.Load(); eng != nil {
		eng.Eval(g.spec.Name, ticks-1, vnow, g.reading(m))
	}
	end := d.obs.Now()
	if obSpan != nil {
		obSpan.SetTick(ticks - 1)
		obSpan.EndAt(end)
	}
	g.mLoop.Observe(end.Sub(s.enq).Seconds())
	g.mQueueDepth.Set(float64(len(g.queue)))
}

// reading is what the SLO engine evaluates for g: the daemon's own
// counters, which are atomics, and the operator's part of m, which the
// caller read under ecoMu.
func (g *game) reading(m operator.Metrics) slo.Reading {
	return slo.Reading{
		Shed: g.mShed.Value(), Ingested: g.mIngest.Value(),
		Timeouts: g.mTimeouts.Value(), Errors: g.mErrors.Value(),
		Loop:  g.mLoop,
		Ticks: m.Ticks, Events: m.Events, Rejections: m.Rejections,
	}
}

// BeginDrain flips the daemon into draining: /readyz reports 503, new
// observations are refused with 503, and each game's queue is closed
// so the workers exit after flushing what is already admitted.
// Idempotent.
func (d *Daemon) BeginDrain() {
	d.drainOnce.Do(func() {
		d.draining.Store(true)
		d.mDraining.Set(1)
		for _, name := range d.order {
			g := d.games[name]
			g.qmu.Lock()
			g.closed = true
			close(g.queue)
			g.qmu.Unlock()
		}
	})
}

// Drain gracefully stops the daemon: BeginDrain, wait for every
// in-flight and queued observation to flush (each bounded by the
// observe deadline), then release all leases via Operator.Shutdown and
// flush a final checkpoint per game. If ctx expires before the flush
// completes, Drain returns ErrDrainTimeout (wrapping the context
// error) without shutting the operators down — the caller hard-exits.
// After a timeout, a later call retries the wait and completes the
// shutdown once the workers have flushed.
func (d *Daemon) Drain(ctx context.Context) error {
	start := time.Now()
	d.BeginDrain()
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrDrainTimeout, ctx.Err())
	}

	var firstErr error
	for _, name := range d.order {
		g := d.games[name]
		d.ecoMu.Lock()
		g.op.Shutdown()
		var payload []byte
		var err error
		ticks := g.op.Metrics().Ticks
		if g.mgr != nil {
			payload, err = g.op.Snapshot()
		}
		d.ecoMu.Unlock()
		if err == nil && g.mgr != nil {
			err = g.mgr.Save(ticks, payload)
		}
		if err != nil {
			g.mCkptErrs.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("daemon: drain %q: %w", name, err)
			}
			continue
		}
		if g.mgr != nil {
			g.mCkpt.Inc()
		}
	}
	d.mDrainSeconds.Set(time.Since(start).Seconds())
	return firstErr
}

// Ticks returns the named game's observed tick count (0 for unknown
// games).
func (d *Daemon) Ticks(gameName string) int {
	g := d.games[gameName]
	if g == nil {
		return 0
	}
	d.ecoMu.Lock()
	defer d.ecoMu.Unlock()
	return g.op.Metrics().Ticks
}
