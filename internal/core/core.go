// Package core implements the paper's trace-driven resource
// provisioning simulation (Section V). Every two simulated minutes the
// game operator predicts the load of each server group (the number of
// players, converted into a resource demand through the game's
// interaction/update model), requests the missing resources from the
// data-center ecosystem, and lets unneeded leases lapse when their
// time bulk expires. The simulator measures the three metrics of the
// paper:
//
//   - resource over-allocation Ω(t) (Equation 1): the cumulated
//     allocation over the cumulated load, reported here as the
//     percentage allocated *beyond* the load (Ω−100%);
//   - resource under-allocation Υ(t) (Equation 2): the average
//     per-server shortfall, where over-allocation on one server cannot
//     compensate a shortfall on another;
//   - significant under-allocation events: ticks where |Υ| > 1%,
//     i.e. moments when the game play is disrupted.
//
// The static alternative provisions each server group for its peak
// demand up front and never adjusts.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/par"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
	"mmogdc/internal/trace"
)

// SignificantUnderPct is the |Υ| threshold (in percent) above which an
// under-allocation is disruptive (Section V).
const SignificantUnderPct = 1.0

// Workload is one MMOG operated on the ecosystem: a game design (the
// update model and latency tolerance), the population trace of its
// server groups, and the predictor driving its requests.
type Workload struct {
	// Game fixes the update model, resource profile, and latency
	// tolerance.
	Game *mmog.Game
	// Dataset provides the per-server-group player counts.
	Dataset *trace.Dataset
	// Predictor builds one predictor per server group (dynamic mode).
	Predictor predict.Factory
}

// Config parameterizes one simulation run.
type Config struct {
	// Workloads are the games sharing the ecosystem.
	Workloads []Workload
	// Centers is the data-center ecosystem (ignored in static mode).
	Centers []*datacenter.Center
	// Static provisions each server group for its trace-wide peak
	// demand instead of predicting and leasing dynamically.
	Static bool
	// SafetyMargin inflates predicted demand by this fraction before
	// requesting (0 = request exactly the prediction).
	SafetyMargin float64
	// TrackCenters enables the per-center accounting used by the
	// latency experiments (Figs. 13 and 14).
	TrackCenters bool
	// PrioritizeByInteraction orders each tick's resource requests by
	// the game's update-model complexity, most compute-intensive
	// first — the extension the paper proposes as future work in
	// Section V-F ("the impact of prioritizing the resource requests
	// according to the interaction type of the MMOG"). Under capacity
	// contention it hands the steepest demand curves first pick, which
	// is where a shortfall hurts the most.
	PrioritizeByInteraction bool
	// Faults configures the fault plan (internal/faults): scheduled
	// and MTBF/MTTR center outages (full or partial), region
	// blackouts, lease-grant rejections and partial grants, and
	// monitoring dropouts. Nil injects nothing. The plan is
	// pre-generated from Faults.Seed, so the same seed reproduces a
	// bit-identical Result for any Workers setting. Run rejects a
	// scheduled outage of a center it does not have.
	Faults *faults.Config
	// FailoverBudgetPerTick caps the failover re-acquisitions performed
	// in any one tick (storm control): when a region blackout drops
	// dozens of zones at once, only the first budget zones (in acquire
	// order) fail over immediately; the rest are deferred by a
	// deterministic jittered backoff of 1–4 ticks so the stampede on
	// the surviving centers is spread out. 0 means unlimited — the
	// legacy same-tick failover for every zone.
	FailoverBudgetPerTick int
	// Brownout enables graceful degradation when the surviving
	// effective capacity cannot cover the demand: instead of letting
	// every zone thrash over the shortage, the engine sheds the
	// lowest-priority zones (the tail of the acquire order) — their
	// leases are released and their acquisitions skipped — until the
	// survivors fit the capacity budget. Result.Resilience accounts the
	// brownout ticks and the player-load shed.
	Brownout bool
	// BrownoutReserveFrac is the fraction of each surviving region's
	// effective capacity held back as reserved headroom while brownout
	// mode decides what fits (0 = spend everything surviving). The
	// reserve absorbs prediction error and aftershocks so the kept
	// zones do not immediately breach again.
	BrownoutReserveFrac float64
	// Workers is the parallelism of the per-zone tick phase: 0 sizes
	// the worker pool by GOMAXPROCS, 1 runs fully sequentially on the
	// caller's goroutine. The result is bit-for-bit identical for any
	// worker count — per-zone work is embarrassingly parallel and the
	// reduce and acquire phases stay sequential in deterministic
	// order.
	Workers int
	// CheckpointDir, when non-empty, makes the run crash-safe: the full
	// engine state is written atomically to this directory every
	// CheckpointEveryTicks ticks, and a run started over a directory
	// holding checkpoints resumes from the newest valid one instead of
	// starting fresh. A resumed run's Result is bit-identical to an
	// uninterrupted run with the same Config. Corrupt checkpoint files
	// are skipped (falling back to the previous good one), never
	// silently loaded. Empty disables checkpointing entirely — the run
	// is then bit-identical to one from before this feature existed.
	CheckpointDir string
	// CheckpointEveryTicks is the checkpoint cadence; 0 defaults to 60
	// ticks (two simulated hours at the paper's 2-minute tick).
	CheckpointEveryTicks int
	// StopAfterTick, when > 0, halts the run right after the named
	// tick completed (and, with CheckpointDir set, after force-writing
	// a checkpoint at that tick). Run returns ErrStopped and no Result.
	// This is the deterministic "kill" of crash-recovery drills: run
	// with StopAfterTick, then rerun without it to resume and finish.
	StopAfterTick int
	// Obs, when non-nil, streams the run's telemetry — per-phase tick
	// timing, provisioning counters mirroring Result.Resilience, and
	// flight-recorder events — into the given observability bundle.
	// Obs is strictly write-only with respect to the simulation: a run
	// with Obs set produces a bit-identical Result to one without, and
	// nil costs nothing on the hot path.
	Obs *obs.Obs
	// Provenance, when > 0, switches decision provenance on: every
	// acquire records the ordered candidate ranking with per-candidate
	// dispositions, and (with Obs set) each grant/failover gains a
	// companion "decision" flight-recorder event. The value is not a
	// depth: a decision leaves the run only as that event, so the
	// matcher keeps one decision slot. Write-only like Obs: the Result
	// is bit-identical with provenance on or off, and 0 disables it
	// entirely.
	Provenance int
}

// Result collects the metrics of one run.
type Result struct {
	// Ticks is the number of scored samples.
	Ticks int
	// AvgOverPct is the mean over-allocation percentage per resource
	// (Ω−100%), averaged over ticks with non-zero load. A resource
	// that never sees load has no defined over-allocation ratio and
	// reports math.NaN(); formatting layers render it as "n/a".
	AvgOverPct [datacenter.NumResources]float64
	// AvgUnderPct is the mean under-allocation Υ per resource (<= 0).
	AvgUnderPct [datacenter.NumResources]float64
	// Events is the number of ticks with a significant
	// under-allocation (|Υ| > 1%) on any resource.
	Events int
	// CumEvents is the running number of significant events per tick
	// (Figs. 7 and 10).
	CumEvents []int
	// OverPct and UnderPct are the per-tick Ω−100% and Υ series for
	// the CPU resource (Figs. 8 and 9).
	OverPct  []float64
	UnderPct []float64
	// Unmet counts ticks where the ecosystem could not serve the full
	// request (capacity exhausted within the latency bound).
	Unmet int
	// AvgUnderByGame is the mean CPU under-allocation per game,
	// normalized by that game's own machine count — the per-operator
	// view the interaction-prioritization extension is judged by.
	AvgUnderByGame map[string]float64
	// CenterStats maps center name to its accounting (TrackCenters).
	CenterStats map[string]*CenterStats
	// Resilience accounts the run's fault handling (always set; all
	// zeros when nothing was injected).
	Resilience *Resilience
	// ResumedFromTick is the tick of the checkpoint this run resumed
	// from, 0 when the run started fresh.
	ResumedFromTick int
}

// CenterStats accounts one center's CPU usage over a run.
type CenterStats struct {
	// AvgAllocatedCPU is the mean allocated CPU units over the run.
	AvgAllocatedCPU float64
	// AvgFreeCPU is the mean free CPU units.
	AvgFreeCPU float64
	// AllocatedByRegion splits AvgAllocatedCPU by the requesting
	// region's name (Figs. 13/14 need to know whose demand each
	// center served).
	AllocatedByRegion map[string]float64
}

// zoneState tracks one server group during the simulation. The run
// holds all zones in one flat value slice, indexed by idx — the
// per-tick phases walk them by index, so zone state, partials, and
// accumulators all live in contiguous, preallocated memory.
type zoneState struct {
	game      *mmog.Game
	group     *trace.Group
	region    trace.Region
	predictor predict.Predictor
	// step is the zone's provisioning step: its lease book, backoff,
	// and parked failover.
	step provision.Step
	// tag is the zone's request/accounting tag ("game/group"), built
	// once at construction — the tick loop must never format it.
	tag string
	// idx is the zone's position in the canonical zone order — the
	// index of its slot in the per-tick partials.
	idx int
	// gameIdx indexes the run's game list for the flat per-game
	// accumulators.
	gameIdx int
	// static allocation (static mode only).
	staticAlloc datacenter.Vector
	// home is the center hosting the zone's static fleet (static mode
	// with centers configured); its outages darken the allocation.
	home *datacenter.Center
	// lastObs carries the last monitoring sample that actually
	// arrived; dropouts feed it to the predictor instead (LOCF).
	lastObs float64
}

// zonePartial is one zone's contribution to a tick, produced by the
// parallel per-zone phase and folded in by the sequential reduce. All
// fields are pure functions of zone-local state, so their values do
// not depend on the worker count or execution order.
type zonePartial struct {
	// alloc is the allocation in force at the scoring instant.
	alloc datacenter.Vector
	// load is the actual resource demand at the scoring instant.
	load datacenter.Vector
	// need is the gap to request from the ecosystem for the next tick
	// (zero in static mode and on the final tick).
	need datacenter.Vector
	// dropped flags a monitoring dropout at this tick (the sample was
	// carried forward).
	dropped bool
}

// sanitizePrediction guards the simulation against misbehaving
// predictors: negative, NaN, or infinite forecasts are treated as
// zero demand (the operator requests nothing rather than poisoning
// the allocation accounting).
func sanitizePrediction(v float64) float64 {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// engine is one simulation run: its zones, the shared ecosystem, the
// Result under construction with its accumulators, and the telemetry.
// Each tick runs the phases of DESIGN §6 as methods, and snapshot and
// restore (checkpoint.go) serialize the same fields.
type engine struct {
	cfg     Config
	samples int
	// start and dt place tick t at start + t·dt.
	start time.Time
	dt    time.Duration

	// zones is the flat zone-state arena: one value slice in canonical
	// order, sized up front and never reallocated once built. partials
	// holds each zone's slot of the tick being computed.
	zones    []zoneState
	partials []zonePartial
	// acquireOrder is the permutation of zone indices that decides who
	// gets first pick when capacity is contended.
	acquireOrder []int
	// gameNames lists the distinct games in workload order; the per-game
	// accumulators are flat slices indexed by zoneState.gameIdx: the
	// reduce's per-tick CPU allocation and shortfall, and the run's
	// under-allocation sum.
	gameNames []string
	gameAlloc []float64
	gameShort []float64
	gameUnder []float64

	centersByName map[string]*datacenter.Center
	plan          *faults.Plan
	matcher       *ecosystem.Matcher
	// counts are the acquisition counters every zone's step adds to.
	counts provision.Counts
	pool   *par.Pool
	// observeFn is observeRange, bound once so a fan-out allocates no
	// method value. curTick and curNow parameterize it; the sequential
	// control path writes them before each fan-out.
	observeFn func(lo, hi, w int)
	curTick   int
	curNow    time.Time

	res *Result
	// Per-resource accumulators for the averages.
	overSum, underSum [datacenter.NumResources]float64
	overTicks         [datacenter.NumResources]int
	// allocCPU and loadCPU are the CPU totals the reduce scored this tick.
	allocCPU, loadCPU float64
	tracker           *outageTracker
	ro                *runObs

	// Brownout and recovery tracking. zoneShed marks the zones whose
	// demand is deliberately unserved this tick; brownoutActive and
	// capLossStart drive the transition events and the time-to-full-
	// recovery accounting (both survive checkpoints).
	zoneShed       []bool
	brownoutActive bool
	capLossStart   int

	// ckpt is the checkpoint store, nil when checkpointing is off.
	ckpt *checkpoint.Manager
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run with an optional decision log installed on the run's
// matcher in place of the one-slot one, so a test can read the whole
// decision stream back.
func run(cfg Config, decisions *ecosystem.DecisionLog) (*Result, error) {
	e, err := newEngine(cfg, decisions)
	if err != nil {
		return nil, err
	}
	defer e.pool.Close()
	from, err := e.resume()
	if err != nil {
		return nil, err
	}
	return e.run(from)
}

// newEngine validates cfg and builds a fresh run over it.
func newEngine(cfg Config, decisions *ecosystem.DecisionLog) (*engine, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	e := &engine{cfg: cfg, capLossStart: -1}
	if err := e.addZones(); err != nil {
		return nil, err
	}
	e.centersByName = map[string]*datacenter.Center{}
	for _, c := range cfg.Centers {
		e.centersByName[c.Name] = c
	}
	if cfg.FailoverBudgetPerTick < 0 {
		return nil, fmt.Errorf("core: FailoverBudgetPerTick must be >= 0, got %d", cfg.FailoverBudgetPerTick)
	}
	// The negated range tests also reject NaN.
	if f := cfg.BrownoutReserveFrac; !(f >= 0 && f < 1) {
		return nil, fmt.Errorf("core: BrownoutReserveFrac must be in [0,1), got %v", f)
	}
	if m := cfg.SafetyMargin; !(m > -1 && m <= math.MaxFloat64) {
		return nil, fmt.Errorf("core: SafetyMargin must be finite and > -1, got %v", m)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for _, o := range cfg.Faults.ScheduledOutages {
			if e.centersByName[o.Center] == nil {
				return nil, fmt.Errorf("core: scheduled outage names unknown center %q", o.Center)
			}
		}
		if cfg.Faults.Enabled() {
			names := make([]string, len(cfg.Centers))
			for i, c := range cfg.Centers {
				names[i] = c.Name
			}
			fcfg := *cfg.Faults
			if fcfg.CorrelatedEnabled() && fcfg.Regions == nil {
				// Derive the failure domains from the centers' geography:
				// centers sharing a continental region share a domain.
				fcfg.Regions = make(map[string]string, len(cfg.Centers))
				for _, c := range cfg.Centers {
					fcfg.Regions[c.Name] = geo.RegionOf(c.Location)
				}
			}
			e.plan = faults.NewPlan(fcfg, names, e.samples)
		}
	}

	if cfg.Static {
		// Static provisioning reproduces the industry practice the
		// paper describes: a dedicated infrastructure sized up front
		// for each server group's peak demand.
		for i := range e.zones {
			z := &e.zones[i]
			peak := 0.0
			for _, v := range z.group.Load.Values {
				if v > peak && !missing(v) {
					peak = v
				}
			}
			z.staticAlloc = z.game.DemandForEntities(peak)
			// With centers configured, each static fleet lives in a home
			// center (round-robin) and darkens with its outages — the
			// dedicated-infrastructure counterpart of the resilience
			// sweep, where dynamic provisioning fails over but a static
			// deployment cannot.
			if len(cfg.Centers) > 0 {
				z.home = cfg.Centers[i%len(cfg.Centers)]
			}
		}
	}

	e.matcher = ecosystem.NewMatcher(cfg.Centers)
	if e.plan != nil {
		e.matcher.SetFaultInjector(e.plan)
	}
	if decisions == nil && cfg.Provenance > 0 {
		// Each decision is rendered into its event while it is the
		// newest; nothing reads an older one.
		decisions = ecosystem.NewDecisionLog(1)
	}
	if decisions != nil {
		e.matcher.SetDecisionLog(decisions)
	}
	e.res = &Result{
		CenterStats: map[string]*CenterStats{},
		Resilience:  &Resilience{Availability: map[string]float64{}},
	}
	if cfg.TrackCenters {
		for _, c := range cfg.Centers {
			e.res.CenterStats[c.Name] = &CenterStats{AllocatedByRegion: map[string]float64{}}
		}
	}
	// The per-tick series are appended to once per scored tick;
	// preallocating their full capacity keeps the tick loop free of
	// append growth (a resume replaces them with the restored slices).
	e.res.CumEvents = make([]int, 0, e.samples-1)
	e.res.OverPct = make([]float64, 0, e.samples-1)
	e.res.UnderPct = make([]float64, 0, e.samples-1)
	e.start = e.zones[0].group.Load.Start
	e.dt = e.zones[0].group.Load.Tick

	// The default acquire order is submission order; with interaction
	// prioritization, the most compute-intensive games go first (a stable
	// sort, so equal games keep submission order).
	e.acquireOrder = make([]int, len(e.zones))
	for i := range e.acquireOrder {
		e.acquireOrder[i] = i
	}
	if cfg.PrioritizeByInteraction {
		sort.SliceStable(e.acquireOrder, func(i, j int) bool {
			return e.zones[e.acquireOrder[i]].game.Update > e.zones[e.acquireOrder[j]].game.Update
		})
	}

	e.pool = par.New(cfg.Workers)
	e.partials = make([]zonePartial, len(e.zones))
	e.observeFn = e.observeRange
	e.tracker = newOutageTracker(cfg.Centers, e.res.Resilience)
	e.ro = newRunObs(cfg.Obs)
	// One provisioning step per zone, all sharing the run's counters and
	// telemetry; the acquire loop drives them in acquire order.
	tel := e.ro.telemetry()
	for i := range e.zones {
		z := &e.zones[i]
		z.step = provision.New(provision.Config{
			Matcher: e.matcher, Tag: z.tag, Origin: z.region.Location,
			MaxDistanceKm: z.game.LatencyKm, JitterKey: i,
			Counts: &e.counts, Telemetry: tel,
		})
	}
	if cfg.Brownout && !cfg.Static {
		e.zoneShed = make([]bool, len(e.zones))
	}
	return e, nil
}

// addZones builds the flat zone array from the workloads, in canonical
// order, with the per-game accumulators beside it, and sets the sample
// count the workloads' datasets share.
func (e *engine) addZones() error {
	nzones := 0
	for _, w := range e.cfg.Workloads {
		if w.Dataset != nil {
			nzones += len(w.Dataset.Groups)
		}
	}
	e.zones = make([]zoneState, 0, nzones)
	for gi, w := range e.cfg.Workloads {
		if w.Game == nil || w.Dataset == nil {
			return fmt.Errorf("core: workload needs game and dataset")
		}
		// Per-game accounting (gameAlloc, AvgUnderByGame, ...) is keyed
		// by name; two games sharing one would silently merge.
		if slices.Contains(e.gameNames, w.Game.Name) {
			return fmt.Errorf("core: duplicate game name %q across workloads", w.Game.Name)
		}
		e.gameNames = append(e.gameNames, w.Game.Name)
		if e.samples == 0 {
			e.samples = w.Dataset.Samples()
		} else if w.Dataset.Samples() != e.samples {
			return fmt.Errorf("core: datasets disagree on length")
		}
		regions := map[int]trace.Region{}
		for _, r := range w.Dataset.Regions {
			regions[r.ID] = r
		}
		for _, g := range w.Dataset.Groups {
			z := zoneState{
				game:    w.Game,
				group:   g,
				region:  regions[g.RegionID],
				tag:     fmt.Sprintf("%s/%s", w.Game.Name, g.Name()),
				idx:     len(e.zones),
				gameIdx: gi,
			}
			if !e.cfg.Static {
				if w.Predictor == nil {
					return fmt.Errorf("core: dynamic mode needs a predictor for game %s", w.Game.Name)
				}
				z.predictor = w.Predictor()
			}
			e.zones = append(e.zones, z)
		}
	}
	if e.samples < 2 {
		return fmt.Errorf("core: need at least 2 samples")
	}
	n := len(e.gameNames)
	e.gameAlloc, e.gameShort, e.gameUnder = make([]float64, n), make([]float64, n), make([]float64, n)
	return nil
}

// resume adopts the newest valid checkpoint in Config.CheckpointDir,
// skipping corrupt files, and returns the tick it was taken after. It
// returns 0, and the run starts fresh, when checkpointing is off or the
// directory holds no checkpoint.
func (e *engine) resume() (int, error) {
	if e.cfg.CheckpointDir == "" {
		return 0, nil
	}
	var err error
	if e.ckpt, err = checkpoint.NewManager(e.cfg.CheckpointDir); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	snap, err := e.ckpt.Latest()
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	from, err := e.restore(snap.Payload)
	if err != nil {
		return 0, err
	}
	e.res.ResumedFromTick = from
	e.ro.resumed(from)
	return from, nil
}

// run simulates every tick after from and returns the Result. A fresh
// run (from 0) first fires tick 0's outages and bootstraps; a resumed
// one finds both in the restored state.
func (e *engine) run(from int) (*Result, error) {
	if from == 0 {
		e.failures(0)
		if !e.cfg.Static {
			e.bootstrap()
		}
	}
	for t := from + 1; t < e.samples; t++ {
		if err := e.tick(t); err != nil {
			return nil, err
		}
	}
	return e.finish(), nil
}

// failures fires the fault plan's outages and recoveries due at tick t:
// the capacity vanishes, and each zone's step finds its released leases
// when it prunes, failing them over within the same tick. Tick-0
// outages fire before the bootstrap acquire, so a center that is down
// from the start never hands out leases. Recoveries apply first so
// windows meeting at one tick compose through the refcount.
func (e *engine) failures(t int) {
	// Region-level events bracket the member centers' own: the
	// blackout/recover markers fire before the per-center fail and
	// recover records they explain.
	for _, b := range e.plan.BlackoutRecoveriesAt(t) {
		e.ro.regionRecover(t, b.Region)
	}
	for _, o := range e.plan.RecoveriesAt(t) {
		if c := e.centersByName[o.Center]; o.Fraction >= 1 {
			c.Recover()
		} else {
			c.Restore(o.Fraction)
		}
		e.ro.recovery(t, o.Center, o.Fraction)
	}
	for _, b := range e.plan.BlackoutsAt(t) {
		e.res.Resilience.RegionBlackouts++
		e.ro.regionBlackout(t, b.Region)
	}
	for _, o := range e.plan.FailuresAt(t) {
		if c := e.centersByName[o.Center]; o.Fraction >= 1 {
			c.Fail()
		} else {
			c.Degrade(o.Fraction)
		}
		e.ro.outage(t, o.Center, o.Fraction)
	}
	e.tracker.observe(t)
}

// bootstrap provisions for the initial load before the first scored
// tick, so the simulation does not begin with an empty allocation (game
// sessions do not start cold mid-operation). It is tick 0's observe
// phase and acquire loop, unscored: on the empty lease books the
// observe body finds nothing held and sizes each request at the whole
// forecast demand.
func (e *engine) bootstrap() {
	e.ro.beginBootstrap()
	e.observe(0, e.start)
	e.dropped(0)
	e.acquire(0, e.start)
	e.ro.endBootstrap()
}

// tick runs tick t's phases: failures and lease expiry, the parallel
// observe phase, the sequential reduce, the sequential acquire (unless
// the run is static or the tick is the last, which is only scored), and
// the end of the tick.
func (e *engine) tick(t int) error {
	tickStart := e.ro.now()
	e.ro.beginTick(t, "tick", tickStart)
	now := e.start.Add(time.Duration(t) * e.dt)
	e.failures(t)
	if !e.cfg.Static {
		e.matcher.Expire(now)
	}
	phaseStart := e.ro.now()
	e.ro.beginObserve(phaseStart)
	e.observe(t, now)
	observeDone := e.ro.now()
	e.ro.observeDone(phaseStart, observeDone)
	e.reduce(t, now)
	reduceDone := e.ro.now()
	e.ro.reduceDone(observeDone, reduceDone)
	if !e.cfg.Static && t < e.samples-1 {
		e.ro.beginAcquireSpan(reduceDone)
		e.brownout(t)
		e.impairment(t)
		if e.acquire(t, now) {
			e.res.Unmet++
			e.ro.unmetTick()
		}
		e.ro.acquireDone(reduceDone, e.ro.now())
	}
	return e.endTick(t, tickStart)
}

// observe runs the per-zone phase of tick t over the worker pool. Every
// datum it touches is zone-local (predictor state, leases) or read-only
// (trace, game model), so zones never contend; chunked contiguous
// ranges give each worker exclusive runs of the partials (no false
// sharing) and amortize the work-stealing cursor over whole chunks.
func (e *engine) observe(t int, now time.Time) {
	e.curTick, e.curNow = t, now
	e.pool.ForRanges(len(e.zones), 0, e.observeFn)
}

func (e *engine) observeRange(lo, hi, w int) {
	for i := lo; i < hi; i++ {
		e.observeZone(i, w)
	}
}

// observeZone is zone i's share of the observe phase, on worker w:
// score the allocation in force against the actual demand, observe the
// new sample, and size the request closing the gap to the predicted
// next demand. Monitoring dropouts are decided by a stateless hash of
// (seed, zone, tick), so parallel workers never contend on a random
// stream.
func (e *engine) observeZone(i, w int) {
	z := &e.zones[i]
	sp := e.ro.zoneSpan(z.tag, e.curTick, w)
	defer sp.End()
	pt := &e.partials[i]
	if e.cfg.Static {
		pt.alloc = z.staticAlloc
		if z.home != nil {
			pt.alloc = z.staticAlloc.Scale(z.home.AvailableFraction())
		}
	} else {
		pt.alloc = z.step.Prune(e.curNow)
	}
	raw := z.group.Load.At(e.curTick)
	loadVal := raw
	if gap := missing(raw); gap || e.plan.DropSample(z.idx, e.curTick) {
		pt.dropped = true
		if gap {
			// The sample is missing from the trace itself; the
			// carried-forward observation is the best load estimate
			// available for scoring.
			loadVal = z.lastObs
		}
	} else {
		pt.dropped = false
		z.lastObs = raw
	}
	pt.load = z.game.DemandForEntities(loadVal)
	pt.need = datacenter.Vector{}
	if e.cfg.Static || e.curTick == e.samples-1 {
		return
	}
	// Observe tick t (the last sample that arrived — dropouts carry the
	// previous observation forward so the predictor state never ingests
	// a hole), predict tick t+1. The request is sized against the
	// allocation surviving to the next scoring instant, so leases renew
	// before they lapse.
	z.predictor.Observe(z.lastObs)
	predicted := sanitizePrediction(z.predictor.Predict())
	want := z.game.DemandForEntities(predicted * (1 + e.cfg.SafetyMargin))
	have := z.step.AllocAt(e.curNow.Add(e.dt))
	pt.need = want.Sub(have).ClampNonNegative()
}

// missing reports a trace sample that is a monitoring dropout: NaN, or
// an infinite value no entity count can take.
func missing(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// dropped counts tick t's monitoring dropouts and reports them in
// canonical zone order. Workers only flag their zones' partials: the
// count is folded here, on the sequential path.
func (e *engine) dropped(t int) {
	for i := range e.partials {
		if e.partials[i].dropped {
			e.res.Resilience.DroppedSamples++
			e.ro.droppedSample(t, e.zones[i].tag)
		}
	}
}

// reduce folds tick t's partials sequentially in canonical zone order —
// float summation order is fixed, so the metrics do not depend on the
// worker count — and scores the tick.
func (e *engine) reduce(t int, now time.Time) {
	e.dropped(t)
	var alloc, load, shortfall [datacenter.NumResources]float64
	for i := range e.zones {
		z := &e.zones[i]
		a, l := e.partials[i].alloc, e.partials[i].load
		for r := 0; r < int(datacenter.NumResources); r++ {
			alloc[r] += a[r]
			load[r] += l[r]
			if d := a[r] - l[r]; d < 0 {
				shortfall[r] += d
			}
		}
		e.gameAlloc[z.gameIdx] += a[datacenter.CPU]
		if d := a[datacenter.CPU] - l[datacenter.CPU]; d < 0 {
			e.gameShort[z.gameIdx] += d
		}
	}
	// M in Equation 2 is the number of machines participating in the
	// game session: the machine-equivalents the allocation occupies (one
	// machine provides one CPU unit).
	machines := math.Ceil(alloc[datacenter.CPU])
	if machines < 1 {
		machines = 1
	}
	event := false
	worstUnder := 0.0
	for r := 0; r < int(datacenter.NumResources); r++ {
		if load[r] > 0 {
			e.overSum[r] += (alloc[r]/load[r] - 1) * 100
			e.overTicks[r]++
		}
		u := shortfall[r] / machines * 100
		e.underSum[r] += u
		if u < -SignificantUnderPct {
			event = true
		}
		if u < worstUnder {
			worstUnder = u
		}
	}
	res := e.res
	if event {
		res.Events++
		e.ro.breach(t, worstUnder)
	}
	e.tracker.serviceHealthy(t, !event)
	res.CumEvents = append(res.CumEvents, res.Events)
	if load[datacenter.CPU] > 0 {
		res.OverPct = append(res.OverPct, (alloc[datacenter.CPU]/load[datacenter.CPU]-1)*100)
	} else {
		res.OverPct = append(res.OverPct, 0)
	}
	res.UnderPct = append(res.UnderPct, shortfall[datacenter.CPU]/machines*100)
	res.Ticks++
	e.allocCPU, e.loadCPU = alloc[datacenter.CPU], load[datacenter.CPU]

	// Per-game under-allocation: only games where some zone actually
	// fell short this tick accumulate (a sum of shortfalls is negative
	// exactly when it has a term); the accumulators reset in place.
	for gi := range e.gameAlloc {
		if e.gameShort[gi] < 0 {
			m := math.Ceil(e.gameAlloc[gi])
			if m < 1 {
				m = 1
			}
			e.gameUnder[gi] += e.gameShort[gi] / m * 100
		}
		e.gameAlloc[gi], e.gameShort[gi] = 0, 0
	}

	// Account center usage.
	if e.cfg.TrackCenters && !e.cfg.Static {
		for _, c := range e.cfg.Centers {
			cs := res.CenterStats[c.Name]
			cs.AvgAllocatedCPU += c.Allocated()[datacenter.CPU]
			cs.AvgFreeCPU += c.Free()[datacenter.CPU]
		}
		for i := range e.zones {
			z := &e.zones[i]
			for _, l := range z.step.Leases() {
				if l.Active(now) {
					res.CenterStats[l.Center.Name].AllocatedByRegion[z.region.Name] += l.Alloc[datacenter.CPU]
				}
			}
		}
	}
}

// brownout sheds demand at tick t when the surviving effective capacity
// — minus the reserve held back per failure domain for failover
// headroom — cannot cover the tick's load: the lowest-priority zones go
// outright instead of every zone thrashing over the shortfall. The shed
// set is recomputed each brownout tick from the live acquire order, so
// zones rejoin as capacity returns.
func (e *engine) brownout(t int) {
	if e.zoneShed == nil {
		return
	}
	budget := 0.0
	for _, c := range e.cfg.Centers {
		budget += c.EffectiveCapacity()[datacenter.CPU]
	}
	budget *= 1 - e.cfg.BrownoutReserveFrac
	if e.loadCPU > budget {
		resil := e.res.Resilience
		resil.BrownoutTicks++
		e.ro.brownoutTick()
		if !e.brownoutActive {
			e.brownoutActive = true
			e.ro.brownoutTransition(t, true, e.loadCPU-budget)
		}
		kept := 0.0
		for _, zi := range e.acquireOrder {
			z := &e.zones[zi]
			zl := e.partials[zi].load[datacenter.CPU]
			// Always keep the highest-priority zone: shedding everything
			// serves no one.
			if kept+zl <= budget || kept == 0 {
				kept += zl
				e.zoneShed[zi] = false
				continue
			}
			e.zoneShed[zi] = true
			released := z.step.Release()
			if released > 0 || z.lastObs > 0 {
				resil.ShedLeases += released
				resil.ShedPlayerTicks += z.lastObs
				e.ro.shed(t, z.tag, z.lastObs, released)
			}
		}
	} else if e.brownoutActive {
		e.brownoutActive = false
		e.ro.brownoutTransition(t, false, 0)
		for i := range e.zoneShed {
			e.zoneShed[i] = false
		}
	}
}

// impairment tracks time to full recovery: the longest stretch from a
// capacity impairment (a center down or degraded, or brownout engaged)
// to the tick full capacity resumed.
func (e *engine) impairment(t int) {
	if e.plan == nil && !e.cfg.Brownout {
		return
	}
	impaired := e.brownoutActive
	if !impaired {
		for _, c := range e.cfg.Centers {
			if c.AvailableFraction() < 1 {
				impaired = true
				break
			}
		}
	}
	switch {
	case impaired && e.capLossStart < 0:
		e.capLossStart = t
	case !impaired && e.capLossStart >= 0:
		if d := t - e.capLossStart; d > e.res.Resilience.TimeToFullRecoveryTicks {
			e.res.Resilience.TimeToFullRecoveryTicks = d
		}
		e.capLossStart = -1
	}
}

// acquire leases every zone's gap for tick t in acquire order, so
// capacity contention resolves the same for any worker count, and
// reports whether any demand went unmet. The gap of a zone whose leases
// died with a failed center already includes the loss, so the same
// acquisition doubles as the failover re-acquisition, excluding the
// centers that dropped it.
func (e *engine) acquire(t int, now time.Time) (unmet bool) {
	failovers := 0
	for _, zi := range e.acquireOrder {
		z := &e.zones[zi]
		if e.zoneShed != nil && e.zoneShed[zi] {
			// Shed in brownout: the demand is deliberately unserved.
			if z.lastObs > 0 {
				unmet = true
			}
			continue
		}
		// Storm control: once the tick's failover budget is spent, a zone
		// that lost capacity parks instead of failing over.
		admit := e.cfg.FailoverBudgetPerTick == 0 || failovers < e.cfg.FailoverBudgetPerTick
		a := z.step.Acquire(t, now, e.partials[zi].need, admit)
		if a.Failover {
			failovers++
		}
		if a.Unmet {
			unmet = true
		}
	}
	return unmet
}

// endTick closes tick t. Checkpoints land at end-of-tick boundaries:
// everything the tick did — metrics, leases, predictor updates, backoff
// — is in the snapshot, and a resumed run re-enters the loop at t+1.
func (e *engine) endTick(t int, tickStart time.Time) error {
	every := e.cfg.CheckpointEveryTicks
	if every <= 0 {
		every = 60
	}
	if e.ckpt != nil && (t%every == 0 || t == e.cfg.StopAfterTick) {
		encStart := e.ro.now()
		payload, err := e.snapshot(t)
		if err != nil {
			return err
		}
		encDone := e.ro.now()
		if err := e.ckpt.Save(t, payload); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		e.ro.checkpointed(t, len(payload), encStart, encDone, e.ro.now())
	}
	e.ro.tickDone(t, tickStart, e.ro.now(), e.allocCPU, e.loadCPU,
		e.res.OverPct[len(e.res.OverPct)-1], e.res.UnderPct[len(e.res.UnderPct)-1], e.pool)
	if e.cfg.StopAfterTick > 0 && t >= e.cfg.StopAfterTick {
		return ErrStopped
	}
	return nil
}

// finish turns the run's accumulators into the Result's averages.
func (e *engine) finish() *Result {
	res, resil, c := e.res, e.res.Resilience, &e.counts
	e.tracker.finish(res.Ticks)
	resil.Failovers, resil.FailoverLeases, resil.FailoversDeferred = c.Failovers, c.FailoverLeases, c.Deferred
	resil.Retries, resil.Rejections, resil.PartialGrants = c.Retries, c.Rejections, c.PartialGrants

	res.AvgUnderByGame = map[string]float64{}
	for gi, name := range e.gameNames {
		res.AvgUnderByGame[name] = e.gameUnder[gi] / float64(res.Ticks)
	}
	for r := 0; r < int(datacenter.NumResources); r++ {
		if e.overTicks[r] > 0 {
			res.AvgOverPct[r] = e.overSum[r] / float64(e.overTicks[r])
		} else {
			res.AvgOverPct[r] = math.NaN()
		}
		res.AvgUnderPct[r] = e.underSum[r] / float64(res.Ticks)
	}
	if e.cfg.TrackCenters {
		for _, cs := range res.CenterStats {
			cs.AvgAllocatedCPU /= float64(res.Ticks)
			cs.AvgFreeCPU /= float64(res.Ticks)
			for k := range cs.AllocatedByRegion {
				cs.AllocatedByRegion[k] /= float64(res.Ticks)
			}
		}
	}
	e.ro.finish(res)
	return res
}
