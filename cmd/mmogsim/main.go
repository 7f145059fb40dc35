// Command mmogsim runs one dynamic-provisioning simulation end to end:
// it generates (or loads) a population trace, pretrains the neural
// predictor on an earlier observation window, simulates the
// request-offer matching against the Table III data centers, and
// reports the paper's three metrics.
//
// Usage:
//
//	mmogsim -days 14 -update "O(n^2)" -policy HP-1,HP-2
//	mmogsim -trace trace.csv -predictor lastvalue -static
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mmogdc/internal/audit"
	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

func main() {
	var (
		days      = flag.Int("days", 14, "generated trace length in days")
		seed      = flag.Uint64("seed", 42, "random seed")
		traceFile = flag.String("trace", "", "load a CSV trace instead of generating one")
		update    = flag.String("update", "O(n^2)", "update model: O(n), O(n log n), O(n^2), O(n^2 log n), O(n^3)")
		policy    = flag.String("policy", "HP-1,HP-2", "comma-separated Table IV policies (or 'optimal') assigned round-robin")
		predictor = flag.String("predictor", "neural", "neural|average|lastvalue|movingavg|median|expsmoothing")
		static    = flag.Bool("static", false, "static (peak-capacity) provisioning instead of dynamic")
		margin    = flag.Float64("margin", 0, "safety margin on predicted demand (e.g. 0.1 = +10%)")
		workers   = flag.Int("workers", 0, "per-zone simulation parallelism (0 = GOMAXPROCS, 1 = sequential)")

		ckptDir   = flag.String("checkpoint-dir", "", "directory for crash-safe run checkpoints (empty disables; a run over existing checkpoints resumes from the newest valid one)")
		ckptEvery = flag.Int("checkpoint-every", 60, "checkpoint cadence in ticks")
		stopAfter = flag.Int("stop-after-tick", 0, "halt right after this tick completes (simulated crash for recovery drills; 0 = run to the end)")

		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /events, and /debug/pprof on this address while the run executes (e.g. 127.0.0.1:8080; :0 picks a free port, printed to stderr)")
		obsLinger  = flag.Duration("obs-linger", 0, "keep the -obs-addr server up this long after the run finishes (for scraping a completed run)")
		obsEvents  = flag.String("obs-events", "", "append every flight-recorder event to this JSONL file")
		obsRing    = flag.Int("obs-ring", 0, "flight-recorder ring capacity in events (0 = default 4096; size it to the run when gating on zero overwrites)")
		provenance = flag.Int("provenance", 0, "record each allocation decision with per-candidate dispositions; with -obs-events, each acquire also emits a 'decision' event (any value > 0 enables, 0 disables; the value is not a depth)")
		metricsOut = flag.String("metrics-out", "", "write a JSON snapshot of all metrics (plus the resilience summary) to this file after the run")
		traceOut   = flag.String("trace-out", "", "record spans and write a Chrome trace_event JSON file (view in Perfetto; feed to mmogaudit)")

		failFile  = flag.String("failures", "", "scheduled outage file: one 'center,atTick,durationTicks' per line, # comments")
		faultSeed = flag.Uint64("fault-seed", 0, "seed of the stochastic fault injector (0 = reuse -seed)")
		mtbf      = flag.Float64("mtbf", 0, "mean ticks between center outages (0 disables stochastic outages)")
		mttr      = flag.Float64("mttr", 0, "mean outage duration in ticks (0 = injector default)")
		degraded  = flag.Float64("fault-degraded", 0, "probability an outage is partial (center keeps a share of machines)")
		reject    = flag.Float64("fault-reject", 0, "probability a center rejects one grant attempt")
		partial   = flag.Float64("fault-partial", 0, "probability a grant is trimmed to a fraction")
		dropout   = flag.Float64("fault-dropout", 0, "probability one zone's monitoring sample is lost at one tick")

		regionMTBF = flag.Float64("region-mtbf", 0, "mean ticks between whole-region blackouts (0 disables correlated region faults)")
		regionMTTR = flag.Float64("region-mttr", 0, "mean region blackout duration in ticks (0 = injector default)")
		aftershock = flag.Float64("aftershock", 0, "probability each center of a recovering region suffers a follow-on outage")
		blackouts  = flag.String("blackout", "", "scheduled region blackouts, comma-separated region:startTick:durationTicks (e.g. eu:480:40)")

		failoverBudget  = flag.Int("failover-budget", 0, "max failover re-acquisitions per tick; the excess defers with jittered backoff (0 = unlimited)")
		brownout        = flag.Bool("brownout", false, "shed lowest-priority leases instead of thrashing when surviving capacity cannot cover demand")
		brownoutReserve = flag.Float64("brownout-reserve", 0, "fraction of surviving capacity held back as headroom during brownout")
	)
	flag.Parse()

	// Observability: the bundle exists whenever any obs flag asks for
	// it; the simulation itself is bit-identical either way.
	var telemetry *obs.Obs
	if *obsAddr != "" || *obsEvents != "" || *metricsOut != "" || *traceOut != "" {
		telemetry = obs.New()
		if *obsRing > 0 {
			telemetry.Recorder = obs.NewRecorder(*obsRing)
		}
	}
	if *traceOut != "" {
		telemetry.EnableTracing()
	}
	if *obsEvents != "" {
		f, err := os.Create(*obsEvents)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		telemetry.Recorder.SetSink(f)
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, telemetry.Handler())
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving http on %s\n", srv.Addr())
	}

	ds, err := loadTrace(*traceFile, *seed, *days)
	if err != nil {
		fatal(err)
	}
	game, err := gameFor(*update)
	if err != nil {
		fatal(err)
	}

	fcfg := faults.Config{
		Seed:          *faultSeed,
		MTBFTicks:     *mtbf,
		MTTRTicks:     *mttr,
		DegradedShare: *degraded,
		RejectProb:    *reject,

		PartialGrantProb: *partial,
		DropoutProb:      *dropout,

		RegionMTBFTicks: *regionMTBF,
		RegionMTTRTicks: *regionMTTR,
		AftershockProb:  *aftershock,
	}
	if *blackouts != "" {
		windows, err := faults.ParseBlackouts(*blackouts)
		if err != nil {
			fatal(err)
		}
		fcfg.ScheduledBlackouts = windows
	}
	if *failFile != "" {
		outages, err := loadFailures(*failFile)
		if err != nil {
			fatal(err)
		}
		fcfg.ScheduledOutages = outages
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = *seed
	}
	// Validate even a configuration that injects nothing: a NaN or
	// negative knob must not pass as "off".
	if err := fcfg.Validate(); err != nil {
		fatal(err)
	}
	faulted := fcfg.Enabled() || *failFile != ""

	cfg := core.Config{
		Static: *static, SafetyMargin: *margin, Workers: *workers,
		CheckpointDir:         *ckptDir,
		CheckpointEveryTicks:  *ckptEvery,
		StopAfterTick:         *stopAfter,
		Obs:                   telemetry,
		Provenance:            *provenance,
		FailoverBudgetPerTick: *failoverBudget,
		Brownout:              *brownout,
		BrownoutReserveFrac:   *brownoutReserve,
	}
	if fcfg.Enabled() {
		cfg.Faults = &fcfg
	}
	// Static mode normally needs no centers, but outages need somewhere
	// to strike: give the static fleet its home centers too.
	if !*static || faulted {
		policies, err := parsePolicies(*policy)
		if err != nil {
			fatal(err)
		}
		cfg.Centers = datacenter.BuildCenters(datacenter.TableIIISites(), policies)
	}
	if !*static {
		f, err := factoryFor(*predictor, *seed, *days)
		if err != nil {
			fatal(err)
		}
		cfg.Workloads = []core.Workload{{Game: game, Dataset: ds, Predictor: f}}
	} else {
		cfg.Workloads = []core.Workload{{Game: game, Dataset: ds}}
	}

	res, err := core.Run(cfg)
	if errors.Is(err, core.ErrStopped) {
		// A deliberate crash drill: the state to resume from is in the
		// checkpoint directory, there is no final result to print.
		fmt.Fprintf(os.Stderr, "stopped after tick %d (checkpoints in %s); rerun without -stop-after-tick to resume\n",
			*stopAfter, *ckptDir)
		return
	}
	if err != nil {
		fatal(err)
	}
	if res.ResumedFromTick > 0 {
		// Stderr, so resumed stdout stays byte-diffable against an
		// uninterrupted run's.
		fmt.Fprintf(os.Stderr, "resumed from checkpoint at tick %d\n", res.ResumedFromTick)
	}

	mode := "dynamic"
	if *static {
		mode = "static"
	}
	fmt.Printf("mode=%s update=%s groups=%d ticks=%d\n", mode, game.Update, len(ds.Groups), res.Ticks)
	for _, r := range datacenter.AllResources {
		fmt.Printf("  %-12s over-allocation %8s   under-allocation %8.3f%%\n",
			r, pct(res.AvgOverPct[r]), res.AvgUnderPct[r])
	}
	fmt.Printf("  significant under-allocation events (|Y|>1%%): %d / %d ticks\n", res.Events, res.Ticks)
	if res.Unmet > 0 {
		fmt.Printf("  WARNING: %d ticks with unmet demand (capacity or latency bound)\n", res.Unmet)
	}
	if faulted {
		printResilience(res.Resilience)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, telemetry, res); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := telemetry.Trc().WriteTraceFile(*traceOut); err != nil {
			fatal(err)
		}
	}
	if telemetry != nil {
		// Stderr, so obs-on stdout stays byte-diffable against obs-off.
		fmt.Fprintf(os.Stderr, "obs: %d events recorded, %d overwritten by the ring, %d sink errors\n",
			telemetry.Recorder.Total(), telemetry.Recorder.Dropped(), telemetry.Recorder.SinkErrs())
		if trc := telemetry.Trc(); trc != nil {
			fmt.Fprintf(os.Stderr, "obs: %d trace records, %d dropped at the capacity bound\n",
				trc.Len(), trc.Dropped())
		}
	}
	if *obsAddr != "" && *obsLinger > 0 {
		fmt.Fprintf(os.Stderr, "obs: lingering %s for scrapes\n", *obsLinger)
		time.Sleep(*obsLinger)
	}
}

// writeMetrics dumps the final registry snapshot plus the run's
// headline results as one JSON document (the schema mmogaudit parses —
// audit.BuildMetricsDoc is the single definition).
func writeMetrics(path string, telemetry *obs.Obs, res *core.Result) error {
	blob, err := json.MarshalIndent(audit.BuildMetricsDoc(telemetry, res), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printResilience renders the fault-handling section of a run that had
// faults configured.
func printResilience(r *core.Resilience) {
	fmt.Printf("resilience:\n")
	fmt.Printf("  outages: %d (%d full, %d partial), capacity recovered in-run: %d\n",
		r.Outages, r.FullOutages, r.PartialOutages, r.CapacityRecovered)
	if r.ServiceRecovered > 0 {
		fmt.Printf("  service recovered: %d, mean time to recover: %.2f ticks\n",
			r.ServiceRecovered, r.MeanTimeToRecoverTicks)
	}
	fmt.Printf("  failovers: %d (%d leases re-acquired), retries after rejection: %d\n",
		r.Failovers, r.FailoverLeases, r.Retries)
	fmt.Printf("  injected: %d rejections, %d partial grants, %d dropped samples\n",
		r.Rejections, r.PartialGrants, r.DroppedSamples)
	fmt.Printf("  capacity lost: %.1f CPU-ticks\n", r.CapacityLostCPUTicks)
	// The failure-domain lines appear only when that machinery fired, so
	// per-center fault runs keep their historical output byte-for-byte.
	if r.RegionBlackouts > 0 || r.FailoversDeferred > 0 {
		fmt.Printf("  region blackouts: %d, failovers deferred by storm control: %d\n",
			r.RegionBlackouts, r.FailoversDeferred)
	}
	if r.BrownoutTicks > 0 {
		fmt.Printf("  brownout: %d ticks, %d leases shed, %.1f player-ticks unserved\n",
			r.BrownoutTicks, r.ShedLeases, r.ShedPlayerTicks)
	}
	if r.TimeToFullRecoveryTicks > 0 && (r.RegionBlackouts > 0 || r.BrownoutTicks > 0) {
		fmt.Printf("  time to full recovery: %d ticks\n", r.TimeToFullRecoveryTicks)
	}
	if len(r.Availability) > 0 {
		names := make([]string, 0, len(r.Availability))
		for name := range r.Availability {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("  availability by center:\n")
		for _, name := range names {
			fmt.Printf("    %-24s %7.3f%%\n", name, r.Availability[name]*100)
		}
	}
}

// loadFailures parses a scheduled-outage file: one outage per line as
// "center,atTick,durationTicks"; blank lines and # comments skipped.
func loadFailures(path string) ([]faults.CenterOutage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var out []faults.CenterOutage
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'center,atTick,durationTicks', got %q", path, line, text)
		}
		at, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad tick: %v", path, line, err)
		}
		dur, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad duration: %v", path, line, err)
		}
		out = append(out, faults.CenterOutage{
			Center: strings.TrimSpace(parts[0]), Start: at, Duration: dur,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func loadTrace(path string, seed uint64, days int) (*trace.Dataset, error) {
	if path == "" {
		return trace.Generate(trace.Config{Seed: seed, Days: days}), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

func gameFor(update string) (*mmog.Game, error) {
	g := mmog.NewGame("mmogsim", mmog.GenreMMORPG)
	norm := strings.ReplaceAll(strings.ToLower(update), " ", "")
	switch norm {
	case "o(n)":
		g.Update = mmog.UpdateLinear
	case "o(nlogn)", "o(nxlog(n))":
		g.Update = mmog.UpdateNLogN
	case "o(n^2)", "o(n2)":
		g.Update = mmog.UpdateQuadratic
	case "o(n^2logn)", "o(n^2xlog(n))", "o(n2logn)":
		g.Update = mmog.UpdateQuadraticLog
	case "o(n^3)", "o(n3)":
		g.Update = mmog.UpdateCubic
	default:
		return nil, fmt.Errorf("unknown update model %q", update)
	}
	return g, nil
}

func parsePolicies(spec string) ([]datacenter.HostingPolicy, error) {
	var out []datacenter.HostingPolicy
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if strings.EqualFold(name, "optimal") {
			out = append(out, datacenter.OptimalPolicy())
			continue
		}
		p, err := datacenter.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return out, nil
}

func factoryFor(name string, seed uint64, days int) (predict.Factory, error) {
	if lower := strings.ToLower(name); lower != "neural" {
		if f := predict.ByName(lower); f != nil {
			return f, nil
		}
		return nil, fmt.Errorf("unknown predictor %q", name)
	}
	shadowDays := 2
	if days < 2 {
		shadowDays = 1
	}
	shadow := trace.Generate(trace.Config{Seed: seed + 1, Days: shadowDays})
	collected := make([][]float64, len(shadow.Groups))
	for i, g := range shadow.Groups {
		collected[i] = g.Load.Values
	}
	f, _ := predict.PretrainShared(predict.PaperNeuralConfig(seed+3), collected, 0.8,
		predict.PaperTrainConfig(seed+2))
	return f, nil
}

// pct renders a percentage metric; an undefined one (NaN, e.g.
// over-allocation for a resource that never saw load) reads "n/a".
func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
