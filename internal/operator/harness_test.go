package operator

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mmogdc/internal/checkpoint"
)

// assertTrajectoriesEqual requires the crashed run to match the
// reference bit-for-bit from tick `from` on, forecasts and ecosystem
// allocation alike.
func assertTrajectoriesEqual(t *testing.T, res *HarnessResult, from int) {
	t.Helper()
	for i := from; i < len(res.Reference); i++ {
		a, b := res.Reference[i], res.Crashed[i]
		if len(a.Forecast) != len(b.Forecast) {
			t.Fatalf("tick %d: forecast lengths %d vs %d", i, len(a.Forecast), len(b.Forecast))
		}
		for z := range a.Forecast {
			if math.Float64bits(a.Forecast[z]) != math.Float64bits(b.Forecast[z]) {
				t.Fatalf("tick %d zone %d: forecast %v (reference) vs %v (crashed)",
					i, z, a.Forecast[z], b.Forecast[z])
			}
		}
		if math.Float64bits(a.AllocatedCPU) != math.Float64bits(b.AllocatedCPU) {
			t.Fatalf("tick %d: allocated CPU %v (reference) vs %v (crashed)",
				i, a.AllocatedCPU, b.AllocatedCPU)
		}
	}
}

func assertForecastsEqual(t *testing.T, res *HarnessResult) {
	t.Helper()
	for i := range res.Reference {
		a, b := res.Reference[i].Forecast, res.Crashed[i].Forecast
		for z := range a {
			if math.Float64bits(a[z]) != math.Float64bits(b[z]) {
				t.Fatalf("tick %d zone %d: forecast %v (reference) vs %v (crashed)", i, z, a[z], b[z])
			}
		}
	}
}

// TestCrashEquivalenceTickCadence is the headline guarantee: with a
// checkpoint every tick, killing the operator at tick boundaries AND
// mid-tick (after leases were acquired but before the checkpoint was
// written) leaves the resumed run bit-identical to an uninterrupted
// one — forecasts, ecosystem allocation, and final metrics.
func TestCrashEquivalenceTickCadence(t *testing.T) {
	res, err := RunCrashHarness(HarnessConfig{
		Seed:          42,
		Ticks:         150,
		DropoutProb:   0.05,
		CheckpointDir: t.TempDir(),
		Crashes: []CrashPoint{
			{Tick: 7},
			{Tick: 23, MidTick: true},
			{Tick: 64},
			{Tick: 65, MidTick: true}, // back-to-back with the boundary crash
			{Tick: 120, MidTick: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restores) != 5 {
		t.Fatalf("restores = %d", len(res.Restores))
	}
	assertTrajectoriesEqual(t, res, 0)
	if res.CrashedMetrics != res.ReferenceMetrics {
		t.Fatalf("metrics diverged:\n  reference %+v\n  crashed   %+v",
			res.ReferenceMetrics, res.CrashedMetrics)
	}
	// The mid-tick crashes must have found orphans (the leases acquired
	// by the doomed tick) and released them.
	sawOrphans := false
	for _, r := range res.Restores {
		if r.MidTick && r.Reconciliation.Orphaned > 0 {
			sawOrphans = true
		}
		if r.Reconciliation.Adopted == 0 {
			t.Fatalf("restore at tick %d adopted nothing: %+v", r.AtTick, r.Reconciliation)
		}
	}
	if !sawOrphans {
		t.Fatal("mid-tick crashes produced no orphaned leases — the harness is not testing the hard case")
	}
}

// TestCrashEquivalenceWithOutages overlays full-center outages: the
// failover machinery and the crash recovery must compose. Crashes are
// placed outside the outage transitions' replay windows, so the runs
// stay bit-identical.
func TestCrashEquivalenceWithOutages(t *testing.T) {
	res, err := RunCrashHarness(HarnessConfig{
		Seed:          7,
		Ticks:         150,
		CheckpointDir: t.TempDir(),
		Outages: []HarnessOutage{
			{Center: "alpha", Start: 40, End: 55},
			{Center: "beta", Start: 90, End: 100},
		},
		Crashes: []CrashPoint{
			{Tick: 30, MidTick: true},
			{Tick: 47}, // inside alpha's outage
			{Tick: 110, MidTick: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertTrajectoriesEqual(t, res, 0)
	if res.CrashedMetrics != res.ReferenceMetrics {
		t.Fatalf("metrics diverged:\n  reference %+v\n  crashed   %+v",
			res.ReferenceMetrics, res.CrashedMetrics)
	}
	if res.ReferenceMetrics.Failovers == 0 {
		t.Fatal("outage scenario produced no failovers — not exercising the composition")
	}
}

// TestCrashEquivalenceMidRegionBlackout extends the matrix with
// correlated failure domains: both European centers black out in a
// rolling window (alpha, then beta two ticks later, so the operator
// fails over twice in quick succession), and the operator is killed
// both at a boundary and mid-tick while the region is dark. The
// resumed trajectory must stay bit-identical.
func TestCrashEquivalenceMidRegionBlackout(t *testing.T) {
	cfg := HarnessConfig{
		Seed:          21,
		Ticks:         150,
		MultiRegion:   true,
		CheckpointDir: t.TempDir(),
		Outages: []HarnessOutage{
			{Center: "alpha", Start: 40, End: 60},
			{Center: "beta", Start: 42, End: 60}, // rolling: the second failover follows the first
		},
		Crashes: []CrashPoint{
			{Tick: 44},                // boundary, region dark
			{Tick: 51, MidTick: true}, // mid-tick while still dark
		},
	}
	res, err := RunCrashHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restores) != 2 {
		t.Fatalf("restores = %d", len(res.Restores))
	}
	assertTrajectoriesEqual(t, res, 0)
	if res.CrashedMetrics != res.ReferenceMetrics {
		t.Fatalf("metrics diverged:\n  reference %+v\n  crashed   %+v",
			res.ReferenceMetrics, res.CrashedMetrics)
	}
	if res.ReferenceMetrics.Failovers < 2 {
		t.Fatalf("rolling blackout failed over %d times, want 2", res.ReferenceMetrics.Failovers)
	}
}

// TestCrashEquivalenceRandomizedSchedule drives the crash ticks from
// a seeded exponential schedule (HarnessConfig.CrashMTBFTicks) instead
// of hand-picked points. With a
// coarser cadence the replay window can span ticks whose leases
// already expired, so allocations may legitimately diverge briefly;
// forecasts must stay bit-identical throughout, and the allocation
// must re-converge within one lease time bulk (30 ticks) of each
// crash.
func TestCrashEquivalenceRandomizedSchedule(t *testing.T) {
	res, err := RunCrashHarness(HarnessConfig{
		Seed:            1234,
		Ticks:           240,
		CheckpointEvery: 5,
		CrashMTBFTicks:  60,
		MidTickShare:    0.5,
		DropoutProb:     0.03,
		CheckpointDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restores) == 0 {
		t.Fatal("randomized schedule injected no crashes; lower the MTBF")
	}
	assertForecastsEqual(t, res)
	// Allocation equality outside the convergence horizon of any crash.
	const horizon = 35 // one lease time bulk plus slack
	inWindow := func(tick int) bool {
		for _, r := range res.Restores {
			if tick >= r.FromTick && tick < r.AtTick+horizon {
				return true
			}
		}
		return false
	}
	checked := 0
	for i := range res.Reference {
		if inWindow(i) {
			continue
		}
		checked++
		if a, b := res.Reference[i].AllocatedCPU, res.Crashed[i].AllocatedCPU; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("tick %d (outside every convergence window): allocated %v vs %v", i, a, b)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d ticks outside convergence windows; scenario too crash-dense to mean anything", checked)
	}
}

// TestHarnessFallsBackOverCorruptCheckpoint damages the newest
// snapshot mid-run: the recovery must skip it (reporting the skipped
// file), restart from the previous good one, and still reproduce the
// uninterrupted trajectory.
func TestHarnessFallsBackOverCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// First run the scenario up to the crash point in a throwaway copy
	// to learn which checkpoint file the crash would restore from, then
	// corrupt it in the real run. Simpler: run the harness once with no
	// crashes to materialize checkpoints, corrupt the one before tick
	// 12, and run the crashy scenario against a fresh directory seeded
	// with those files.
	seed := HarnessConfig{
		Seed:          9,
		Ticks:         12,
		CheckpointDir: dir,
	}
	if _, err := RunCrashHarness(seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	ticks, err := mgr.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	newest := ticks[len(ticks)-1]
	blob, err := os.ReadFile(mgr.Path(newest))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-4] ^= 0x40
	if err := os.WriteFile(mgr.Path(newest), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := mgr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tick != newest-1 {
		t.Fatalf("fallback restored tick %d, want %d", snap.Tick, newest-1)
	}
	if len(snap.Corrupt) != 1 || snap.Corrupt[0] != filepath.Base(mgr.Path(newest)) {
		t.Fatalf("corrupt files = %v", snap.Corrupt)
	}
}

// TestHarnessCorruptionDuringCrashRun flips a bit in the newest
// checkpoint right before a crash recovery reads it: the restore must
// reject the damaged file, fall back to the previous good snapshot
// (replaying one extra tick), report the skipped file — and the run
// must still match the reference bit-for-bit. The crash lands early
// (tick 12, within the first lease time bulk) so no lease has expired
// inside the widened replay window and bit-equality is the exact
// expectation, not just convergence.
func TestHarnessCorruptionDuringCrashRun(t *testing.T) {
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := ""
	res, err := RunCrashHarness(HarnessConfig{
		Seed:          11,
		Ticks:         90,
		CheckpointDir: dir,
		Crashes:       []CrashPoint{{Tick: 12}},
		PreRestore: func(atTick int) {
			ticks, err := mgr.Ticks()
			if err != nil || len(ticks) == 0 {
				t.Errorf("pre-restore at %d: %v", atTick, err)
				return
			}
			newest := mgr.Path(ticks[len(ticks)-1])
			blob, err := os.ReadFile(newest)
			if err != nil {
				t.Errorf("pre-restore: %v", err)
				return
			}
			blob[len(blob)-1] ^= 0x01
			if err := os.WriteFile(newest, blob, 0o644); err != nil {
				t.Errorf("pre-restore: %v", err)
			}
			corrupted = filepath.Base(newest)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restores) != 1 {
		t.Fatalf("restores = %d", len(res.Restores))
	}
	r := res.Restores[0]
	if r.FromTick != 10 {
		t.Fatalf("fallback restored from tick %d, want 10 (11 was corrupted)", r.FromTick)
	}
	if len(r.CorruptSkipped) != 1 || r.CorruptSkipped[0] != corrupted {
		t.Fatalf("corrupt files skipped = %v, want [%s]", r.CorruptSkipped, corrupted)
	}
	assertTrajectoriesEqual(t, res, 0)
	if res.CrashedMetrics != res.ReferenceMetrics {
		t.Fatalf("metrics diverged:\n  reference %+v\n  crashed   %+v",
			res.ReferenceMetrics, res.CrashedMetrics)
	}
}
