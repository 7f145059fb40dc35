// Live: online provisioning of a running game world.
//
// The other examples replay recorded traces; this one closes the loop
// the paper's architecture describes — in-game monitoring feeding the
// predictor feeding the resource requests — against a *live* game: the
// emulator steps a world in one goroutine and streams per-sub-zone
// entity counts over a channel, and an internal/operator Operator
// predicts each zone's next two minutes, converts the forecasts into
// demand, and leases the shortfall from the data centers, tick by tick.
//
// This is the embedded, single-process variant of the provisioning
// loop; cmd/mmogd wraps the same loop in a long-running service with an
// HTTP ingestion API, admission control, and graceful drain.
//
//	go run ./examples/live
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/emulator"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/operator"
	"mmogdc/internal/predict"
)

// sample is one monitoring snapshot: the per-sub-zone entity counts.
type sample struct {
	step   int
	counts []int
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole session so every error path unwinds through the
// deferred cleanup (the obs server, the final checkpoint) instead of
// tearing the process down mid-loop.
func run() error {
	ckptDir := flag.String("checkpoint-dir", "", "directory for operator checkpoints (empty disables; an existing checkpoint is restored and its leases reconciled)")
	ckptEvery := flag.Int("checkpoint-every", 30, "checkpoint cadence in ticks")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /events, and /debug/pprof on this address (e.g. 127.0.0.1:8080; empty disables)")
	flag.Parse()

	// Observability: one bundle shared by the operator and, when
	// -obs-addr is set, an HTTP server exposing it live.
	telemetry := obs.New()
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, telemetry.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving http on %s\n", srv.Addr())
	}

	// The live game: Table I "Set 5" (peak hours, mixed profiles).
	cfg := emulator.TableIConfigs()[4]
	cfg.Steps = 360 // half a simulated day

	// Offline phases first: observe an earlier day of the same game
	// and train the network on the collected sub-zone samples.
	collectCfg := cfg
	collectCfg.Seed += 1000
	collectCfg.Steps = 720
	collectRun := emulator.Run(collectCfg)
	collected := make([][]float64, len(collectRun.Zones))
	for i, z := range collectRun.Zones {
		collected[i] = z.Values
	}
	ncfg := predict.PaperNeuralConfig(7)
	ncfg.Degree = -1
	factory, report := predict.PretrainShared(ncfg, collected, 0.8, predict.PaperTrainConfig(9))
	fmt.Printf("offline training: %d eras, converged=%v\n\n", report.Eras, report.Converged)

	// In-game monitoring: a producer goroutine steps the world and
	// streams snapshots; closing the channel ends the session.
	world := emulator.NewWorld(cfg)
	samples := make(chan sample, 8)
	go func() {
		defer close(samples)
		for s := 0; s < cfg.Steps; s++ {
			world.Step()
			samples <- sample{step: s, counts: world.ZoneCounts()}
		}
	}()

	// The operator: predictors, demand conversion, and leasing wired
	// together by internal/operator.
	centers := []*datacenter.Center{
		datacenter.NewCenter("local", geo.Amsterdam, 2, datacenter.OptimalPolicy()),
		datacenter.NewCenter("nearby", geo.London, 2, datacenter.OptimalPolicy()),
	}
	opCfg := operator.Config{
		Game:      mmog.NewGame("live", mmog.GenreRPG), // O(n log n): sensible per-sub-zone demand
		Origin:    geo.Amsterdam,
		Predictor: factory,
		Matcher:   ecosystem.NewMatcher(centers),
		Obs:       telemetry,
	}

	// Crash safety: restore the newest valid checkpoint if one exists
	// (reconciling its lease book against the centers), otherwise start
	// fresh; then keep snapshotting on a cadence so a killed session
	// resumes from its last saved state.
	var mgr *checkpoint.Manager
	var op *operator.Operator
	var err error
	if *ckptDir != "" {
		if mgr, err = checkpoint.NewManager(*ckptDir); err != nil {
			return err
		}
		snap, lerr := mgr.Latest()
		switch {
		case lerr == nil:
			var rec *operator.Reconciliation
			if op, rec, err = operator.FromSnapshot(opCfg, snap.Payload); err != nil {
				return err
			}
			fmt.Printf("restored checkpoint from tick %d: %d leases adopted, %d lost, %d orphans released\n\n",
				snap.Tick, rec.Adopted, rec.Lost, rec.Orphaned)
		case errors.Is(lerr, checkpoint.ErrNoCheckpoint):
			// Fresh session.
		default:
			return lerr
		}
	}
	if op == nil {
		if op, err = operator.New(opCfg); err != nil {
			return err
		}
	}

	now := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	// One values buffer for the whole session: Observe consumes the
	// slice synchronously, so reusing it keeps the monitoring loop free
	// of per-tick garbage.
	var values []float64
	for s := range samples {
		if cap(values) < len(s.counts) {
			values = make([]float64, len(s.counts))
		}
		values = values[:len(s.counts)]
		var population float64
		for i, n := range s.counts {
			values[i] = float64(n)
			population += values[i]
		}
		if err := op.Observe(now, values); err != nil {
			return err
		}

		if s.step%60 == 59 { // every two simulated hours
			var forecast float64
			for _, f := range op.Forecast() {
				forecast += f
			}
			allocated := centers[0].Allocated().Add(centers[1].Allocated())
			fmt.Printf("t=%3dm  population %4.0f  forecast %4.0f  allocated CPU %.2f units  cost so far %.2f\n",
				(s.step+1)*2, population, forecast,
				allocated[datacenter.CPU], datacenter.TotalCostOf(centers))
		}
		if mgr != nil && s.step%*ckptEvery == *ckptEvery-1 {
			payload, err := op.Snapshot()
			if err != nil {
				return err
			}
			if err := mgr.Save(op.Metrics().Ticks, payload); err != nil {
				return err
			}
		}
		now = now.Add(2 * time.Minute)
	}

	// End the session cleanly: release every lease and, when
	// checkpointing, flush a final clean-shutdown snapshot.
	op.Shutdown()
	if mgr != nil {
		payload, err := op.Snapshot()
		if err != nil {
			return err
		}
		if err := mgr.Save(op.Metrics().Ticks, payload); err != nil {
			return err
		}
	}

	m := op.Metrics()
	fmt.Printf("\nsession over: %d ticks, over-allocation %.1f%%, mean shortfall %.4f units,\n",
		m.Ticks, m.AvgOverPct, m.AvgShortfall)
	fmt.Printf("disruptive ticks %d, total rental cost %.2f\n",
		m.Events, datacenter.TotalCostOf(centers))
	fmt.Printf("obs: %d metric series, %d events recorded (%d dropped from the ring, %d sink errors)\n",
		telemetry.Registry.SeriesCount(), telemetry.Recorder.Total(),
		telemetry.Recorder.Dropped(), telemetry.Recorder.SinkErrs())
	return nil
}
