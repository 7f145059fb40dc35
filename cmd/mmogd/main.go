// Command mmogd is the long-running provisioning daemon: the online
// observe→predict→lease loop of internal/operator served over HTTP
// (internal/daemon), with admission control and backpressure, hot
// config reload, crash-safe checkpointing, and graceful drain.
//
//	mmogd -addr 127.0.0.1:8080 -games live -checkpoint-dir /var/lib/mmogd
//
// Clients push monitoring samples with POST /v1/observe and read the
// forecast and lease book back from /v1/forecast and /v1/leases; the
// observability surface (/metrics, /events, /debug/pprof) rides on the
// same port. cmd/mmogload is the matching load generator.
//
// Signals:
//
//	SIGHUP          re-read -config (when set) and hot-reload it
//	SIGTERM/SIGINT  graceful drain: stop admitting (readyz -> 503),
//	                flush queued ticks, release leases, write a final
//	                checkpoint, exit 0
//	a second TERM/INT, or a drain that outlives -drain-timeout,
//	hard-exits with code 3
//
// Exit codes: 0 clean drain, 2 usage or startup failure, 3 drain
// deadline exceeded or second signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mmogdc/internal/daemon"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/emulator"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		games     = flag.String("games", "live", "comma-separated game names to provision (RPG update model)")
		predictor = flag.String("predictor", "lastvalue", "per-zone predictor: lastvalue|average|movingavg|median|expsmoothing|neural")
		machines  = flag.Int("machines", 4, "machines per data center (two centers: Amsterdam + London)")
		queue     = flag.Int("queue", 64, "ingest queue depth per game (full queue sheds with 429)")
		maxBody   = flag.Int64("max-body", 1<<20, "maximum request body bytes")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-game checkpoints (restored and reconciled at startup; empty disables)")
		ckptEvery = flag.Int("checkpoint-every", 30, "ticks between cadence checkpoints (0 disables)")
		tickSec   = flag.Float64("tick-seconds", 120, "virtual monitoring interval one sample advances the clock by")
		obsTmo    = flag.Duration("observe-timeout", time.Second, "deadline on one observe->predict->acquire pass (0 disables)")
		obsDelay  = flag.Duration("observe-delay", 0, "injected processing delay per sample (backpressure fault knob)")
		fReject   = flag.Float64("fault-reject", 0, "probability a center grant attempt is rejected")
		fPartial  = flag.Float64("fault-partial", 0, "probability a grant is trimmed to 25-75%")
		fDropout  = flag.Float64("fault-dropout", 0, "probability a zone sample is dropped (LOCF bridges it)")
		fSeed     = flag.Uint64("fault-seed", 1, "seed for the injection streams")
		cfgPath   = flag.String("config", "", "hot-config JSON file (loaded at start, re-read on SIGHUP)")
		drainTmo  = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline before hard exit")
		explainN  = flag.Int("explain", 0, "retain the last N allocation decisions per game and serve them on GET /v1/explain (0 disables)")
		obsEvents = flag.String("obs-events", "", "append every flight-recorder event to this JSONL file")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace of request/observe/acquire spans here at drain (enables tracing)")
		rtMetrics = flag.Bool("runtime-metrics", true, "export Go runtime self-telemetry (GC, heap, goroutines, sched latency) on /metrics")
	)
	flag.Parse()

	hot := daemon.HotConfig{
		TickSeconds:      *tickSec,
		CheckpointEvery:  *ckptEvery,
		ObserveTimeoutMS: int(*obsTmo / time.Millisecond),
		ObserveDelayMS:   int(*obsDelay / time.Millisecond),
		FaultRejectProb:  *fReject,
		FaultPartialProb: *fPartial,
		FaultDropoutProb: *fDropout,
		FaultSeed:        *fSeed,
	}
	if *cfgPath != "" {
		loaded, err := loadHot(*cfgPath, hot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "daemon: -config: %v\n", err)
			return 2
		}
		hot = loaded
	}

	factory, err := factoryFor(*predictor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 2
	}

	telemetry := obs.New()
	var eventsFile *os.File
	if *obsEvents != "" {
		eventsFile, err = os.Create(*obsEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "daemon:", err)
			return 2
		}
		telemetry.Recorder.SetSink(eventsFile)
	}
	if *traceOut != "" {
		// PID-prefixed span IDs keep the daemon's IDs disjoint from the
		// load generator's, so mmogaudit can merge both trace files
		// without collisions.
		telemetry.EnableTracing().SetIDBase(obs.PIDSpanBase())
	}
	if *rtMetrics {
		telemetry.EnableRuntimeMetrics()
	}

	centers := []*datacenter.Center{
		datacenter.NewCenter("local", geo.Amsterdam, *machines, datacenter.OptimalPolicy()),
		datacenter.NewCenter("nearby", geo.London, *machines, datacenter.OptimalPolicy()),
	}
	var specs []daemon.GameSpec
	for _, name := range strings.Split(*games, ",") {
		if name = strings.TrimSpace(name); name != "" {
			specs = append(specs, daemon.GameSpec{Name: name, Genre: mmog.GenreRPG, Origin: geo.Amsterdam})
		}
	}

	d, err := daemon.New(daemon.Config{
		Games:         specs,
		Predictor:     factory,
		Matcher:       ecosystem.NewMatcher(centers),
		Obs:           telemetry,
		QueueDepth:    *queue,
		MaxBodyBytes:  *maxBody,
		CheckpointDir: *ckptDir,
		Hot:           hot,
		ExplainDepth:  *explainN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // daemon.New names itself
		return 2
	}
	for _, spec := range specs {
		if tick, rec, ok := d.Reconciliation(spec.Name); ok {
			fmt.Fprintf(os.Stderr, "daemon: game %q restored checkpoint from tick %d: %d leases adopted, %d lost, %d orphans released\n",
				spec.Name, tick, rec.Adopted, rec.Lost, rec.Orphaned)
		}
	}

	// Install the handler before serving: a supervisor may signal as soon
	// as the "serving" line appears, and the default disposition would
	// kill the process with no drain and no final checkpoint.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	srv, err := obs.Serve(*addr, d.Handler())
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "daemon: serving http on %s\n", srv.Addr())

	drained := make(chan error, 1)
	draining := false
	for {
		select {
		case err := <-drained:
			srv.Close()
			if eventsFile != nil {
				eventsFile.Close()
			}
			if *traceOut != "" {
				if werr := telemetry.Tracer.WriteTraceFile(*traceOut); werr != nil {
					fmt.Fprintln(os.Stderr, "daemon: trace-out:", werr)
				}
			}
			if err != nil {
				if errors.Is(err, daemon.ErrDrainTimeout) {
					fmt.Fprintln(os.Stderr, "daemon: drain deadline exceeded — hard exit")
					return 3
				}
				fmt.Fprintln(os.Stderr, "daemon: drain:", err)
				return 1
			}
			fmt.Fprintln(os.Stderr, "daemon: drain complete")
			return 0
		case s := <-sig:
			switch s {
			case syscall.SIGHUP:
				if *cfgPath == "" {
					fmt.Fprintln(os.Stderr, "daemon: SIGHUP ignored (no -config file)")
					continue
				}
				cand, err := loadHot(*cfgPath, d.Hot())
				if err == nil {
					err = d.Reload(cand)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "daemon: reload rejected, keeping active config: %v\n", err)
				} else {
					fmt.Fprintln(os.Stderr, "daemon: reload applied")
				}
			default: // SIGINT, SIGTERM
				if draining {
					fmt.Fprintln(os.Stderr, "daemon: second signal — hard exit")
					return 3
				}
				draining = true
				fmt.Fprintf(os.Stderr, "daemon: draining (deadline %s)\n", *drainTmo)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), *drainTmo)
					defer cancel()
					drained <- d.Drain(ctx)
				}()
			}
		}
	}
}

// loadHot decodes a hot-config JSON file on top of the given base
// (daemon.DecodeHot), so a partial file tweaks only the fields it
// names.
func loadHot(path string, base daemon.HotConfig) (daemon.HotConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return base, err
	}
	defer f.Close()
	return daemon.DecodeHot(f, base)
}

// factoryFor maps a predictor name to its factory. The neural option
// pretrains a shared network on an emulated observation day first
// (mirroring examples/live), so startup takes noticeably longer.
func factoryFor(name string) (predict.Factory, error) {
	if name != "neural" {
		if f := predict.ByName(name); f != nil {
			return f, nil
		}
		return nil, fmt.Errorf("unknown predictor %q", name)
	}
	cfg := emulator.TableIConfigs()[4]
	cfg.Seed += 1000
	cfg.Steps = 720
	run := emulator.Run(cfg)
	collected := make([][]float64, len(run.Zones))
	for i, z := range run.Zones {
		collected[i] = z.Values
	}
	ncfg := predict.PaperNeuralConfig(7)
	ncfg.Degree = -1
	factory, report := predict.PretrainShared(ncfg, collected, 0.8, predict.PaperTrainConfig(9))
	fmt.Fprintf(os.Stderr, "daemon: offline training: %d eras, converged=%v\n", report.Eras, report.Converged)
	return factory, nil
}
