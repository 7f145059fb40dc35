// Package mmogdc's root benchmark suite: one benchmark per paper
// table/figure (regenerating the artifact at reduced scale so the
// suite completes in minutes), plus ablation benches for the design
// choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package mmogdc

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/emulator"
	"mmogdc/internal/experiments"
	"mmogdc/internal/mmog"
	"mmogdc/internal/neural"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
	"mmogdc/internal/xrand"
)

// benchOpts is the reduced-scale configuration used by the
// per-artifact benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 42}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one benchmark per paper artifact ----

func BenchmarkFig01Market(b *testing.B)            { benchExperiment(b, "fig01") }
func BenchmarkFig02GlobalTrace(b *testing.B)       { benchExperiment(b, "fig02") }
func BenchmarkFig03RegionalAnalysis(b *testing.B)  { benchExperiment(b, "fig03") }
func BenchmarkFig04PacketCDF(b *testing.B)         { benchExperiment(b, "fig04") }
func BenchmarkTab01EmulatorSets(b *testing.B)      { benchExperiment(b, "tab01") }
func BenchmarkFig05PredictionError(b *testing.B)   { benchExperiment(b, "fig05") }
func BenchmarkFig06PredictionTiming(b *testing.B)  { benchExperiment(b, "fig06") }
func BenchmarkTab05Predictors(b *testing.B)        { benchExperiment(b, "tab05") }
func BenchmarkFig07CumulativeEvents(b *testing.B)  { benchExperiment(b, "fig07") }
func BenchmarkFig08StaticVsDynamic(b *testing.B)   { benchExperiment(b, "fig08") }
func BenchmarkTab06UpdateModels(b *testing.B)      { benchExperiment(b, "tab06") }
func BenchmarkFig09OverUnderSeries(b *testing.B)   { benchExperiment(b, "fig09") }
func BenchmarkFig10EventsPerModel(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11ResourceBulk(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12TimeBulk(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13Latency(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14VeryFarAllocation(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkTab07MultiMMOG(b *testing.B)         { benchExperiment(b, "tab07") }

// ---- extension experiments ----

func BenchmarkExt01Priority(b *testing.B)   { benchExperiment(b, "ext01") }
func BenchmarkExt02Cost(b *testing.B)       { benchExperiment(b, "ext02") }
func BenchmarkExt03Predictors(b *testing.B) { benchExperiment(b, "ext03") }

// ---- per-predictor micro-benchmarks (the Fig. 6 measurement at
// testing.B precision): one full Observe+Predict step each ----

func benchPredictor(b *testing.B, f predict.Factory) {
	b.Helper()
	p := f()
	signal := make([]float64, 256)
	for i := range signal {
		signal[i] = float64(100 + (i*37)%900)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(signal[i%len(signal)])
		_ = p.Predict()
	}
}

func BenchmarkPredictNeural(b *testing.B) {
	benchPredictor(b, predict.NewNeural(predict.PaperNeuralConfig(1)))
}

func BenchmarkPredictLastValue(b *testing.B) { benchPredictor(b, predict.NewLastValue()) }

func BenchmarkPredictAverage(b *testing.B) { benchPredictor(b, predict.NewAverage()) }

func BenchmarkPredictMovingAverage(b *testing.B) {
	benchPredictor(b, predict.NewMovingAverage(predict.DefaultWindow))
}

func BenchmarkPredictExpSmoothing(b *testing.B) {
	benchPredictor(b, predict.NewExpSmoothing(0.5, "Exp. smoothing 50%"))
}

func BenchmarkPredictSlidingWindowMedian(b *testing.B) {
	benchPredictor(b, predict.NewSlidingWindowMedian(predict.DefaultWindow))
}

// ---- core simulation engine: sequential vs parallel tick phases ----

// benchmarkCoreRun measures one full dynamic-provisioning run — 125
// server groups over a one-day trace with the online (6,3,1) neural
// predictor per group, the workload whose per-zone Observe/Predict
// walk dominates the tick — at the given per-zone parallelism.
// Workers=1 is the sequential engine; Workers=0 sizes the worker pool
// by GOMAXPROCS. The Result is bit-identical across all variants (see
// core's TestParallelSequentialEquivalence); only wall-clock differs.
func benchmarkCoreRun(b *testing.B, workers int) {
	b.Helper()
	ds := trace.Generate(trace.Config{Seed: 7, Days: 1})
	game := mmog.NewGame("bench", mmog.GenreMMORPG)
	factory := predict.NewNeural(predict.PaperNeuralConfig(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Centers and predictors are stateful across a run: rebuild.
		cfg := core.Config{
			Workers:   workers,
			Centers:   datacenter.BuildCenters(datacenter.TableIIISites(), datacenter.Policies()[:2]),
			Workloads: []core.Workload{{Game: game, Dataset: ds, Predictor: factory}},
		}
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreRunSequential(b *testing.B) { benchmarkCoreRun(b, 1) }

func BenchmarkCoreRunWorkers2(b *testing.B) { benchmarkCoreRun(b, 2) }

func BenchmarkCoreRunWorkers4(b *testing.B) { benchmarkCoreRun(b, 4) }

func BenchmarkCoreRunWorkers8(b *testing.B) { benchmarkCoreRun(b, 8) }

func BenchmarkCoreRunParallel(b *testing.B) { benchmarkCoreRun(b, 0) }

// ---- observability overhead (DESIGN.md §9) ----

// BenchmarkObsOverhead pins the telemetry layer's cost contract: the
// disabled path (nil instruments, what a nil Registry hands out and
// what core.Run uses with Config.Obs unset) must run with 0 allocs/op,
// and a fully instrumented run must stay within a few percent of an
// uninstrumented one (compare run-off vs run-on ns/op).
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("instruments-disabled", func(b *testing.B) {
		var r *obs.Registry
		var tr *obs.Tracer
		c := r.Counter("c_total", "")
		g := r.Gauge("g", "")
		h := r.Histogram("h_seconds", "", obs.TimeBuckets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.Set(float64(i))
			h.Observe(0.001)
			// Disabled tracing must be free too: nil spans, no clock
			// reads, no allocations.
			sp := tr.Begin("tick", "tick", 0)
			sp.SetTick(i)
			sp.SetWorker(1)
			sp.End()
		}
	})
	b.Run("instruments-enabled", func(b *testing.B) {
		r := obs.NewRegistry()
		c := r.Counter("c_total", "")
		g := r.Gauge("g", "")
		h := r.Histogram("h_seconds", "", obs.TimeBuckets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.Set(float64(i))
			h.Observe(0.001)
		}
	})

	runBench := func(b *testing.B, prov int, o func() *obs.Obs) {
		b.Helper()
		ds := trace.Generate(trace.Config{Seed: 7, Days: 1})
		game := mmog.NewGame("bench", mmog.GenreMMORPG)
		factory := predict.NewLastValue()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				Workers:    2,
				Centers:    datacenter.BuildCenters(datacenter.TableIIISites(), datacenter.Policies()[:2]),
				Workloads:  []core.Workload{{Game: game, Dataset: ds, Predictor: factory}},
				Obs:        o(),
				Provenance: prov,
			}
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("run-off", func(b *testing.B) { runBench(b, 0, func() *obs.Obs { return nil }) })
	b.Run("run-on", func(b *testing.B) { runBench(b, 0, obs.New) })
	// Decision provenance on top of full instrumentation (DESIGN.md
	// §15): the decision log's steady-state recording cost.
	b.Run("run-provenance", func(b *testing.B) { runBench(b, 256, obs.New) })
}

// ---- substrate micro-benchmarks ----

func BenchmarkTraceGenerateDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trace.Generate(trace.Config{Seed: uint64(i + 1), Days: 1})
	}
}

func BenchmarkEmulatorDay(b *testing.B) {
	cfg := emulator.TableIConfigs()[0]
	cfg.Steps = 720
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		_ = emulator.Run(cfg)
	}
}

func BenchmarkMLPTrainingEra(b *testing.B) {
	r := xrand.New(1)
	m := neural.NewMLP(r)
	rows := make([]neural.Row, 720)
	for i := range rows {
		for j := range rows[i].In {
			rows[i].In[j] = r.Float64()
		}
		rows[i].Target = r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range rows {
			m.TrainClipped(&rows[k].In, rows[k].Target, 0.01, 0.5, 0)
		}
	}
}

// BenchmarkPretrainShared times the neural predictor's offline
// training eras as the bench/ sim workloads run them: PretrainShared
// over the 125 groups of a two-day shadow trace of seed 2, with
// PaperNeuralConfig(4) and PaperTrainConfig(3). The trace is generated
// before the timer starts.
func BenchmarkPretrainShared(b *testing.B) {
	shadow := trace.Generate(trace.Config{Seed: 2, Days: 2})
	collected := make([][]float64, len(shadow.Groups))
	for i, g := range shadow.Groups {
		collected[i] = g.Load.Values
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict.PretrainShared(predict.PaperNeuralConfig(4), collected, 0.8, predict.PaperTrainConfig(3))
	}
}

// BenchmarkReferenceKernel is the ledger's yardstick: a fixed workload
// that calls no mmogdc code — 65,536 xorshift keys sorted, then
// counted by residue in a map — so its ns/op follows only the host.
// scripts/benchgate gates every other row's ns/op by its ratio to this
// row in the same snapshot.
func BenchmarkReferenceKernel(b *testing.B) {
	keys := make([]uint64, 1<<16)
	counts := make(map[uint64]int, 1021)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint64(88172645463325252)
		for k := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[k] = x
		}
		slices.Sort(keys)
		clear(counts)
		for _, k := range keys {
			counts[k%1021]++
		}
	}
}

// BenchmarkMatcherAllocate times one small grant from the first trace
// region's origin over ecosystems of 10, 130 and 1000 centers: the
// Table III sites in turn, ten machines each, alternating the first
// two Table IV policies.
func BenchmarkMatcherAllocate(b *testing.B) {
	sites := datacenter.TableIIISites()
	policies := datacenter.Policies()[:2]
	for _, n := range []int{10, 130, 1000} {
		b.Run(fmt.Sprintf("centers=%d", n), func(b *testing.B) {
			centers := make([]*datacenter.Center, n)
			for i := range centers {
				s := sites[i%len(sites)]
				centers[i] = datacenter.NewCenter(fmt.Sprintf("%s #%d", s.Name, i), s.Location, 10, policies[i%len(policies)])
			}
			m := ecosystem.NewMatcher(centers)
			game := mmog.NewGame("bench", mmog.GenreMMORPG)
			now := time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)
			origin := trace.DefaultRegions()[0].Location
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var req datacenter.Vector
				req[datacenter.CPU] = 0.01
				m.AllocateDetailed(nil, ecosystem.Request{
					Tag:           "bench",
					Origin:        origin,
					MaxDistanceKm: game.LatencyKm,
					Demand:        req,
				}, now)
				now = now.Add(time.Second)
				if i%256 == 255 {
					m.Expire(now.Add(24 * time.Hour))
				}
			}
		})
	}
}

// ---- ablation benches (DESIGN.md design choices) ----

// BenchmarkAblationShuffledTraining compares era training with and
// without per-era sample shuffling (DESIGN.md: unshuffled zone-grouped
// samples cause catastrophic interference).
func BenchmarkAblationShuffledTraining(b *testing.B) {
	// Full-size sets: the interference from zone-grouped sample order
	// needs enough eras and data to show (unshuffled training stalls
	// into premature convergence with a visibly worse test loss).
	cfg := emulator.TableIConfigs()[1]
	collected := zonesOf(emulator.Run(cfg))

	var shuffled, unshuffled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := predict.PaperTrainConfig(9)
		tc.MaxEras = 60
		nc := predict.PaperNeuralConfig(7)
		nc.Degree = -1
		_, res := predict.PretrainShared(nc, collected, 0.8, tc)
		shuffled = res.TestLoss

		tc.ShuffleSeed = 0
		_, res = predict.PretrainShared(nc, collected, 0.8, tc)
		unshuffled = res.TestLoss
	}
	b.ReportMetric(shuffled, "shuffled-loss")
	b.ReportMetric(unshuffled, "unshuffled-loss")
}

func zonesOf(ds *emulator.DataSet) [][]float64 {
	out := make([][]float64, len(ds.Zones))
	for z, s := range ds.Zones {
		out[z] = s.Values
	}
	return out
}

func BenchmarkExt04Reservations(b *testing.B) { benchExperiment(b, "ext04") }

func BenchmarkExt05Interaction(b *testing.B) { benchExperiment(b, "ext05") }

func BenchmarkExt06Bandwidth(b *testing.B) { benchExperiment(b, "ext06") }

func BenchmarkExt07Margin(b *testing.B) { benchExperiment(b, "ext07") }

func BenchmarkExt08Failure(b *testing.B) { benchExperiment(b, "ext08") }

func BenchmarkExt09Horizon(b *testing.B) { benchExperiment(b, "ext09") }
