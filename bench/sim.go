package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// simWorkers is the per-zone parallelism of every sim rep, and a sim
// run sets GOMAXPROCS to it. One worker on one P is mmogsim -workers 1:
// with two, the CPU time of a rep also counted the Go runtime's idle P
// spinning for work and running GC mark work opportunistically, which
// varied with what the host did on the other vCPU.
const simWorkers = 1

// simSpec builds one sim workload's inputs from the seed.
type simSpec func(seed uint64, days int) (*simSetup, error)

// simSetup is what a sim workload builds before core.Run: the games
// with their traces and predictor factories, and the centers.
type simSetup struct {
	workloads []core.Workload
	// centers builds a fresh ecosystem; centers carry lease state, so
	// every rep gets its own.
	centers func() []*datacenter.Center
	// tune sets the workload's remaining Config fields for one rep;
	// scratch is an empty directory the rep may write to.
	tune func(cfg *core.Config, scratch string)
}

// paperSim is mmogsim's default run: one O(n^2) MMORPG over the
// generated trace, Table III centers under HP-1/HP-2, and the neural
// predictor pretrained on a shadow trace.
func paperSim(seed uint64, days int) (*simSetup, error) {
	var policies []datacenter.HostingPolicy
	for _, name := range []string{"HP-1", "HP-2"} {
		p, err := datacenter.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		policies = append(policies, p)
	}
	ds := trace.Generate(trace.Config{Seed: seed, Days: days})
	return &simSetup{
		workloads: []core.Workload{{
			Game: mmog.NewGame("mmogsim", mmog.GenreMMORPG), Dataset: ds, Predictor: simNeural(days),
		}},
		centers: func() []*datacenter.Center {
			return datacenter.BuildCenters(datacenter.TableIIISites(), policies)
		},
	}, nil
}

// chaosSim splits the same trace round-robin across the three Table VII
// games on optimal-policy centers with the last-value predictor, and
// turns on every fault, failover, brownout, checkpoint, telemetry and
// provenance path the engine has.
func chaosSim(seed uint64, days int) (*simSetup, error) {
	ds := trace.Generate(trace.Config{Seed: seed, Days: days})
	games := []*mmog.Game{
		{Name: "MMOG A", Update: mmog.UpdateNLogN, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
		{Name: "MMOG B", Update: mmog.UpdateQuadratic, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
		{Name: "MMOG C", Update: mmog.UpdateQuadraticLog, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
	}
	groups := make([][]*trace.Group, len(games))
	for i, g := range ds.Groups {
		groups[i%len(games)] = append(groups[i%len(games)], g)
	}
	lastValue := predict.NewLastValue()
	s := &simSetup{
		centers: func() []*datacenter.Center {
			return datacenter.BuildCenters(datacenter.TableIIISites(),
				[]datacenter.HostingPolicy{datacenter.OptimalPolicy()})
		},
		tune: func(cfg *core.Config, scratch string) {
			cfg.Faults = &faults.Config{
				Seed: seed, MTBFTicks: 400, MTTRTicks: 20, DegradedShare: 0.3,
				RejectProb: 0.02, PartialGrantProb: 0.05, DropoutProb: 0.01,
				ScheduledBlackouts: []faults.RegionBlackout{{Region: "eu", Start: 480, Duration: 40}},
			}
			cfg.FailoverBudgetPerTick = 8
			cfg.Brownout = true
			cfg.CheckpointDir = scratch
			cfg.CheckpointEveryTicks = 360
			cfg.Provenance = 256
			if cfg.Obs == nil {
				cfg.Obs = obs.New()
			}
		},
	}
	for i, game := range games {
		s.workloads = append(s.workloads, core.Workload{
			Game:      game,
			Dataset:   &trace.Dataset{Config: ds.Config, Regions: ds.Regions, Groups: groups[i]},
			Predictor: lastValue,
		})
	}
	return s, nil
}

// zones counts the server groups across the setup's games.
func (s *simSetup) zones() int {
	n := 0
	for _, w := range s.workloads {
		n += len(w.Dataset.Groups)
	}
	return n
}

// simRep is one measured core.Run.
type simRep struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	res            *core.Result
	digest         string
}

// rep runs core.Run once on fresh centers. o is the telemetry bundle
// (nil for none) and wrap, when set, wraps every predictor factory.
func (s *simSetup) rep(work string, o *obs.Obs, wrap func(predict.Factory) predict.Factory) (*simRep, error) {
	scratch, err := os.MkdirTemp(work, "sim-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg := core.Config{Workers: simWorkers, Centers: s.centers(), Obs: o}
	for _, w := range s.workloads {
		if wrap != nil {
			w.Predictor = wrap(w.Predictor)
		}
		cfg.Workloads = append(cfg.Workloads, w)
	}
	if s.tune != nil {
		s.tune(&cfg, filepath.Join(scratch, "checkpoints"))
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := selfCPU()
	t0 := time.Now()
	res, err := core.Run(cfg)
	wall := time.Since(t0)
	cpu := selfCPU() - c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("core.Run: %w", err)
	}
	return &simRep{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		res: res, digest: digest(res),
	}, nil
}

// digest fingerprints everything a Result reports, so reps of one
// configuration, and a traced rep against an untraced one, can be
// compared exactly.
func digest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%v|%v|%d|%v|%v|%v|%d|%v|%+v|%d",
		res.Ticks, res.AvgOverPct, res.AvgUnderPct, res.Events, res.CumEvents,
		res.OverPct, res.UnderPct, res.Unmet, res.AvgUnderByGame, *res.Resilience,
		res.ResumedFromTick)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simTrace is one of a sim run's traces: its set-up, the digest of its
// warm-up rep's Result, and its timed reps.
type simTrace struct {
	s                                                      *simSetup
	digest                                                 string
	cpuPerTick, scaledPerTick, allocsPerTick, bytesPerTick []float64
}

// runSim sets the workload up from r.seed and then either times
// core.Run reps for r.measureFor() or runs the traced variant. A timed
// run draws r.scale.simTraces traces from the seed and sets them up in
// turn, at least r.scale.setups times in all (setup_s is the median CPU
// time that took); it keeps the first set-up of each trace and times
// reps on them in turn. Every set-up and timed rep is scaled by the
// reference kernel timed around it.
func runSim(r *run, spec simSpec) error {
	runtime.GOMAXPROCS(simWorkers)
	traces := r.scale.simTraces
	seedOf := func(i int) uint64 { return r.seed*uint64(traces) + uint64(i) }
	if r.trace {
		s, err := spec(seedOf(0), r.scale.simDays)
		if err != nil {
			return err
		}
		return traceSim(r, s)
	}
	var (
		ts                    []*simTrace
		setups, scaled, walls []float64
		spent                 time.Duration
	)
	r.cal.begin()
	for i := 0; ; i++ {
		runtime.GC()
		c0, t0 := selfCPU(), time.Now()
		s, err := spec(seedOf(i%traces), r.scale.simDays)
		if err != nil {
			return err
		}
		s.centers()
		wall := time.Since(t0)
		cpu := (selfCPU() - c0).Seconds()
		setups = append(setups, cpu)
		scaled = append(scaled, r.cal.scale(cpu))
		walls = append(walls, wall.Seconds())
		spent += wall
		if i < traces {
			ts = append(ts, &simTrace{s: s})
		}
		if len(ts) == traces && !r.moreSetups(len(setups), spent) {
			break
		}
	}

	// Each trace's first rep warms caches up and fixes the digest its
	// later reps must match; the first trace's also probes the live heap.
	// These reps are not timed. Timed reps then go round the traces until
	// r.measureFor() has passed and the round is complete. Only the first
	// trace's warm-up Result is kept (for its paper outputs): holding
	// every rep would grow the heap the later reps run in.
	probe := newHeapProbe(ts[0].s.workloads[0].Dataset.Samples())
	var first *core.Result
	for i, t := range ts {
		wrap := probe.wrap
		if i > 0 {
			wrap = nil
		}
		r.res.Attempted++
		rep, err := t.s.rep(r.work, nil, wrap)
		if err != nil {
			return err
		}
		t.digest = rep.digest
		if i == 0 {
			first = rep.res
		}
	}
	r.check("the heap probe saw every scored tick", probe.observed == first.Ticks,
		fmt.Sprintf("%d observations for %d ticks", probe.observed, first.Ticks))
	r.cal.begin()
	var cpuPerTick, perSecond []float64
	deadline := time.Now().Add(r.measureFor())
	for i := 0; i < r.scale.minReps*traces || i%traces != 0 || time.Now().Before(deadline); i++ {
		t := ts[i%traces]
		r.res.Attempted++
		rep, err := t.s.rep(r.work, nil, nil)
		if err != nil {
			r.res.Failed++
			r.check("core.Run rep", false, err.Error())
			break
		}
		if rep.digest != t.digest {
			r.res.Failed++
		}
		ticks := float64(rep.res.Ticks)
		cpu := float64(rep.cpu.Nanoseconds()) / 1e3 / ticks
		t.cpuPerTick = append(t.cpuPerTick, cpu)
		t.scaledPerTick = append(t.scaledPerTick, r.cal.scale(cpu))
		t.allocsPerTick = append(t.allocsPerTick, float64(rep.mallocs)/ticks)
		t.bytesPerTick = append(t.bytesPerTick, float64(rep.bytes)/ticks)
		cpuPerTick = append(cpuPerTick, cpu)
		perSecond = append(perSecond, ticks*float64(t.s.zones())/rep.wall.Seconds())
	}
	fmt.Printf("  %d timed reps of %d ticks x %d zones over %d trace(s), after a warm-up rep each\n",
		len(cpuPerTick), first.Ticks, ts[0].s.zones(), traces)
	fmt.Printf("  %s\n", &r.cal)
	digests := make([]string, traces)
	for i, t := range ts {
		digests[i] = t.digest
	}
	r.check("every rep has its trace's Result digest", r.res.Failed == 0,
		fmt.Sprintf("%d of %d reps differ from %v", r.res.Failed, r.res.Attempted, digests))
	printPaper(first)

	hwm, err := memMB(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}
	// A tick's work depends on its trace, so each per-tick metric is the
	// mean over the traces of the trace's median.
	perTrace := func(f func(t *simTrace) []float64) float64 {
		sum := 0.0
		for _, t := range ts {
			sum += median(f(t))
		}
		return sum / float64(len(ts))
	}
	r.setCPU("setup_s", median(scaled), setups, "s", fmt.Sprintf("CPU time, median of n=%d scaled (wall %s)", len(scaled), spread(walls)))
	r.setCPU("cpu_us_per_tick", perTrace(func(t *simTrace) []float64 { return t.scaledPerTick }), cpuPerTick, "us",
		"process CPU time per tick of each rep, scaled, mean over traces of their medians")
	r.set("allocs_per_tick", perTrace(func(t *simTrace) []float64 { return t.allocsPerTick }), "allocs", "mean over traces of their medians")
	r.set("bytes_per_tick", perTrace(func(t *simTrace) []float64 { return t.bytesPerTick }), "B", "mean over traces of their medians")
	r.set("heap_live_mb", float64(probe.liveHeap)/(1<<20), "MB",
		fmt.Sprintf("at the first trace's warm-up rep's last tick; peak RSS of this process %.1f MB", hwm))
	info("zone_ticks_per_s", best(perSecond, true), "zone-ticks/s", bestNote(perSecond, "reps"))
	return nil
}

// printPaper prints the run's paper outputs: they are checked by the
// digest, not gated, but a reader wants them next to the timings.
func printPaper(res *core.Result) {
	rs := res.Resilience
	fmt.Printf("  paper outputs: CPU over-allocation %.3f%%, %d under-allocation events, %d unmet ticks, %d failovers\n",
		res.AvgOverPct[datacenter.CPU], res.Events, res.Unmet, rs.Failovers)
}

// traceSim runs three reps on one set-up: an untraced baseline, one
// with the engine's registry on (core.Config.Obs), and one with every
// predictor timed. All three must agree on the Result digest.
func traceSim(r *run, s *simSetup) error {
	base, err := s.rep(r.work, nil, nil)
	if err != nil {
		return err
	}
	o := obs.New()
	traced, err := s.rep(r.work, o, nil)
	if err != nil {
		return err
	}
	timer := &predictTimer{}
	timedRep, err := s.rep(r.work, nil, timer.wrap)
	if err != nil {
		return err
	}
	r.res.Attempted = 3
	for _, rep := range []*simRep{traced, timedRep} {
		if rep.digest != base.digest {
			r.res.Failed++
		}
	}
	r.check("traced reps match the untraced Result digest", r.res.Failed == 0,
		fmt.Sprintf("untraced %s, obs %s, timed predictors %s", base.digest, traced.digest, timedRep.digest))
	printPaper(base.res)
	fmt.Printf("  core.Run: untraced %.3fs, obs on %.3fs, predictors timed %.3fs\n",
		base.wall.Seconds(), traced.wall.Seconds(), timedRep.wall.Seconds())

	reg := o.Registry
	hist := func(name string, labels ...obs.Label) *obs.Histogram {
		return reg.Histogram(name, "", obs.TimeBuckets, labels...)
	}
	observe := hist("mmogdc_tick_phase_duration_seconds", obs.L("phase", "observe")).Sum()
	reduce := hist("mmogdc_tick_phase_duration_seconds", obs.L("phase", "reduce")).Sum()
	acquire := hist("mmogdc_tick_phase_duration_seconds", obs.L("phase", "acquire")).Sum()
	tick := hist("mmogdc_tick_duration_seconds").Sum()
	other := tick - observe - reduce - acquire
	coverage := tick / traced.wall.Seconds()
	r.set("core.observe_s", observe, "s", share(observe, tick))
	r.set("core.reduce_s", reduce, "s", share(reduce, tick))
	r.set("core.acquire_s", acquire, "s", share(acquire, tick))
	r.set("core.tick_other_s", other, "s", share(other, tick))
	r.set("core.tick_coverage", coverage, "ratio", fmt.Sprintf("tick sum %.3fs of core.Run %.3fs", tick, traced.wall.Seconds()))
	r.check("tick phases fit inside the tick sum", other >= -1e-9,
		fmt.Sprintf("observe+reduce+acquire %.4fs, tick sum %.4fs", observe+reduce+acquire, tick))
	r.check("tick sum covers >= 95% of core.Run", coverage >= 0.95, fmt.Sprintf("%.4f", coverage))

	rs := traced.res.Resilience
	r.set("core.failovers", float64(rs.Failovers), "count", "")
	r.set("core.brownout_ticks", float64(rs.BrownoutTicks), "count", "")
	r.set("paper.cpu_over_alloc_pct", base.res.AvgOverPct[datacenter.CPU], "%", "")
	r.set("paper.under_alloc_events", float64(base.res.Events), "count", "")

	calls, busy := timer.totals()
	r.set("predict.calls", float64(calls), "count", "")
	r.set("predict.ns_per_call", perCall(float64(busy.Nanoseconds()), float64(calls)), "ns", "Observe+Predict per forecast")

	grants := float64(reg.Counter("mmogdc_grants_total", "").Value())
	r.set("ecosystem.grants", grants, "count", "")
	r.set("ecosystem.us_per_grant", perCall(acquire*1e6, grants), "us", "acquire phase / grants")

	enc := hist("mmogdc_checkpoint_encode_seconds")
	wr := hist("mmogdc_checkpoint_write_seconds")
	r.set("checkpoint.writes", float64(enc.Count()), "count", "")
	r.set("checkpoint.encode_ms", perCall(enc.Sum()*1e3, float64(enc.Count())), "ms", "per checkpoint")
	r.set("checkpoint.write_ms", perCall(wr.Sum()*1e3, float64(wr.Count())), "ms", "per checkpoint")

	r.set("obs.overhead_pct", (traced.wall.Seconds()/base.wall.Seconds()-1)*100, "%", "core.Run wall, obs on vs off")
	if err := os.WriteFile(filepath.Join(r.out, r.workload+"-metrics.prom"), []byte(reg.PrometheusText()), 0o644); err != nil {
		return err
	}
	r.fillPerLayer()
	return nil
}

// share renders part as a percentage of whole.
func share(part, whole float64) string {
	return fmt.Sprintf("%.1f%% of tick sum", perCall(part*100, whole))
}

// perCall divides, reading 0 when nothing happened.
func perCall(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
