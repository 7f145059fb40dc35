package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

// assertResultsEqual compares two Results bit-for-bit (NaN-safe, which
// reflect.DeepEqual is not for floats), ignoring ResumedFromTick.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	f64 := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %v (uninterrupted) vs %v (resumed)", name, a, b)
		}
	}
	if want.Ticks != got.Ticks || want.Events != got.Events || want.Unmet != got.Unmet {
		t.Fatalf("counters: %d/%d/%d vs %d/%d/%d",
			want.Ticks, want.Events, want.Unmet, got.Ticks, got.Events, got.Unmet)
	}
	for r := 0; r < int(datacenter.NumResources); r++ {
		f64("AvgOverPct", want.AvgOverPct[r], got.AvgOverPct[r])
		f64("AvgUnderPct", want.AvgUnderPct[r], got.AvgUnderPct[r])
	}
	if !reflect.DeepEqual(want.CumEvents, got.CumEvents) {
		t.Fatal("CumEvents series diverged")
	}
	for i := range want.OverPct {
		f64("OverPct", want.OverPct[i], got.OverPct[i])
		f64("UnderPct", want.UnderPct[i], got.UnderPct[i])
	}
	if len(want.AvgUnderByGame) != len(got.AvgUnderByGame) {
		t.Fatal("AvgUnderByGame key sets diverged")
	}
	for name, v := range want.AvgUnderByGame {
		f64("AvgUnderByGame["+name+"]", v, got.AvgUnderByGame[name])
	}
	a, b := want.Resilience, got.Resilience
	if a.Outages != b.Outages || a.FullOutages != b.FullOutages ||
		a.PartialOutages != b.PartialOutages || a.CapacityRecovered != b.CapacityRecovered ||
		a.ServiceRecovered != b.ServiceRecovered || a.Failovers != b.Failovers ||
		a.FailoverLeases != b.FailoverLeases || a.Retries != b.Retries ||
		a.Rejections != b.Rejections || a.PartialGrants != b.PartialGrants ||
		a.DroppedSamples != b.DroppedSamples ||
		a.RegionBlackouts != b.RegionBlackouts || a.FailoversDeferred != b.FailoversDeferred ||
		a.BrownoutTicks != b.BrownoutTicks || a.ShedLeases != b.ShedLeases ||
		a.TimeToFullRecoveryTicks != b.TimeToFullRecoveryTicks {
		t.Fatalf("resilience counters diverged:\n  %+v\n  %+v", a, b)
	}
	f64("MeanTimeToRecoverTicks", a.MeanTimeToRecoverTicks, b.MeanTimeToRecoverTicks)
	f64("CapacityLostCPUTicks", a.CapacityLostCPUTicks, b.CapacityLostCPUTicks)
	f64("ShedPlayerTicks", a.ShedPlayerTicks, b.ShedPlayerTicks)
	for name, v := range a.Availability {
		f64("Availability["+name+"]", v, b.Availability[name])
	}
	if len(want.CenterStats) != len(got.CenterStats) {
		t.Fatal("CenterStats key sets diverged")
	}
	for name, cs := range want.CenterStats {
		gs := got.CenterStats[name]
		f64("AvgAllocatedCPU["+name+"]", cs.AvgAllocatedCPU, gs.AvgAllocatedCPU)
		f64("AvgFreeCPU["+name+"]", cs.AvgFreeCPU, gs.AvgFreeCPU)
		for region, v := range cs.AllocatedByRegion {
			f64("AllocatedByRegion["+name+"/"+region+"]", v, gs.AllocatedByRegion[region])
		}
	}
}

// resumableConfig builds a run exercising every checkpointed subsystem:
// two games (per-game accounting), fault injection (outages, grant
// faults, dropouts — the sequential grant stream must resume
// mid-sequence), a scheduled failure, center tracking, and a stateful
// predictor. Centers are built fresh per call, as a restarted process
// would.
func resumableConfig() Config {
	return Config{
		Workloads: []Workload{
			{Game: mmog.NewGame("alpha-game", mmog.GenreMMORPG),
				Dataset: syntheticDataset(3, 300, 1500), Predictor: predict.NewAR(3, 6, 32)},
			{Game: mmog.NewGame("beta-game", mmog.GenreFPS),
				Dataset: syntheticDataset(2, 300, 900), Predictor: predict.NewMovingAverage(5)},
		},
		Centers:      fineCenters(60),
		TrackCenters: true,
		SafetyMargin: 0.05,
		Faults: &faults.Config{
			ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: 130, Duration: 6}},
			Seed:             5,
			MTBFTicks:        90,
			MTTRTicks:        8,
			DegradedShare:    0.5,
			RejectProb:       0.05,
			PartialGrantProb: 0.1,
			DropoutProb:      0.02,
		},
	}
}

// TestCheckpointResumeMatchesUninterrupted is the engine's headline
// guarantee: kill the run mid-flight (StopAfterTick), restart it over
// the checkpoint directory with fresh centers, and the final Result is
// bit-identical to a run that never stopped.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 50
	stopped.StopAfterTick = 137 // off-cadence: exercises the forced save
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	resumed := resumableConfig()
	resumed.CheckpointDir = dir
	resumed.CheckpointEveryTicks = 50
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 137 {
		t.Fatalf("resumed from tick %d, want 137", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestResumeCommittedCheckpoint pins the core-run@2 byte layout: a
// checkpoint written at tick 137 of resumableConfig (every 50 ticks,
// StopAfterTick 137) by an earlier build of the engine resumes to the
// uninterrupted Result.
func TestResumeCommittedCheckpoint(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "resumable-tick137.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mgr.Path(137), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := resumableConfig()
	resumed.CheckpointDir = dir
	resumed.CheckpointEveryTicks = 50
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 137 {
		t.Fatalf("resumed from tick %d, want 137", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// FuzzCoreResume feeds payload bytes to restore on a fresh
// resumableConfig engine and finishes the run. Every input must be
// refused, or resume to a Result of the whole run's shape: each tick
// scored once, each series one entry per tick, and every center's
// availability a fraction. The seed corpus (testdata/fuzz) holds a real
// payload and three once-accepted states no run reaches: a checkpoint
// tick of 1 after 140 scored ticks, 0 scored ticks beside 140-entry
// series, and a NaN degradation.
func FuzzCoreResume(f *testing.F) {
	blob, err := os.ReadFile(filepath.Join("testdata", "resumable-tick137.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := checkpoint.Open(blob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, r := range refusedPayloads(f) {
		f.Add(r.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := resumableConfig()
		built := centerFacts(cfg.Centers)
		e, err := newEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.pool.Close()
		from, err := e.restore(data)
		if err != nil {
			if got := centerFacts(cfg.Centers); got != built {
				t.Fatalf("a refused payload (%v) changed the centers:\n%s\nas built:\n%s", err, got, built)
			}
			return
		}
		res, err := e.run(from)
		if err != nil {
			return
		}
		if res.Ticks != e.samples-1 {
			t.Fatalf("resumed from tick %d to %d scored ticks, want %d", from, res.Ticks, e.samples-1)
		}
		if len(res.CumEvents) != res.Ticks || len(res.OverPct) != res.Ticks || len(res.UnderPct) != res.Ticks {
			t.Fatalf("%d ticks with series of %d/%d/%d", res.Ticks, len(res.CumEvents), len(res.OverPct), len(res.UnderPct))
		}
		for name, v := range res.Resilience.Availability {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("center %s availability %v", name, v)
			}
		}
	})
}

// centerFacts renders what a caller can see of each center: its live
// leases, allocation, clock, early releases, cost and availability.
func centerFacts(centers []*datacenter.Center) string {
	var b strings.Builder
	for _, dc := range centers {
		fmt.Fprintf(&b, "%s: %d leases, allocated %v, clock %v, %d early, cost %v, available %v\n",
			dc.Name, dc.ActiveLeases(), dc.Allocated(), dc.Clock(), dc.EarlyReleases(), dc.TotalCost(), dc.AvailableFraction())
	}
	return b.String()
}

// namedPayload is a checkpoint payload and what makes it special.
type namedPayload struct {
	name string
	data []byte
}

// refusedPayloads returns two tick-137 payloads a resumableConfig
// engine refuses after reading its center books: the committed one
// with a trailing byte, and one written by a run without center
// tracking, refused by its tail.
func refusedPayloads(tb testing.TB) []namedPayload {
	tb.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "resumable-tick137.ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := checkpoint.Open(blob)
	if err != nil {
		tb.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "untracked")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	untracked := resumableConfig()
	untracked.TrackCenters = false
	untracked.CheckpointDir = dir
	untracked.CheckpointEveryTicks = 50
	untracked.StopAfterTick = 137
	if _, err := Run(untracked); !errors.Is(err, ErrStopped) {
		tb.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := mgr.Latest()
	if err != nil {
		tb.Fatal(err)
	}
	return []namedPayload{
		{"trailing byte", append(slices.Clip(payload), 0)},
		{"untracked", snap.Payload},
	}
}

// TestRefusedResumeLeavesCentersFresh restores each of refusedPayloads
// over a fresh resumableConfig engine. The payload must be refused and
// every center left as built, so that resuming from the committed
// checkpoint over the same Config still gives the uninterrupted Result.
func TestRefusedResumeLeavesCentersFresh(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "resumable-tick137.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refusedPayloads(t) {
		cfg := resumableConfig()
		built := centerFacts(cfg.Centers)
		e, err := newEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.restore(r.data)
		e.pool.Close()
		if err == nil {
			t.Fatalf("%s: payload restored", r.name)
		}
		if got := centerFacts(cfg.Centers); got != built {
			t.Fatalf("%s: the refusal (%v) changed the centers:\n%s\nas built:\n%s", r.name, err, got, built)
		}
		dir := t.TempDir()
		mgr, err := checkpoint.NewManager(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mgr.Path(137), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.CheckpointDir = dir
		cfg.CheckpointEveryTicks = 50
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: resuming over the same Config: %v", r.name, err)
		}
		assertResultsEqual(t, ref, res)
	}
}

// TestCheckpointResumeStaticMode covers the predictor-free path: a
// static deployment with a home-center failure resumes mid-outage.
func TestCheckpointResumeStaticMode(t *testing.T) {
	mk := func() Config {
		return Config{
			Static: true,
			Workloads: []Workload{{Game: testGame(),
				Dataset: syntheticDataset(2, 120, 1200)}},
			Centers: fineCenters(40),
			Faults:  &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: 40, Duration: 20}}},
		}
	}
	ref, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := mk()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 10
	stopped.StopAfterTick = 45 // inside the outage window
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	resumed := mk()
	resumed.CheckpointDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 45 {
		t.Fatalf("resumed from tick %d, want 45", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestResumeFallsBackOverCorruptCheckpoint flips a bit in the newest
// checkpoint: the resumed run must skip it, restart from the previous
// good one, and still reproduce the uninterrupted Result exactly. A
// damaged snapshot is never silently loaded.
func TestResumeFallsBackOverCorruptCheckpoint(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 20
	stopped.StopAfterTick = 100
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(mgr.Path(100))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x10
	if err := os.WriteFile(mgr.Path(100), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := resumableConfig()
	resumed.CheckpointDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 80 {
		t.Fatalf("resumed from tick %d, want 80 (100 was corrupt)", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestResumeRejectsForeignCheckpoint: a snapshot only resumes the run
// it was taken from — different zone topology, different fault plan,
// or recycled (dirty) centers must all be refused loudly.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.StopAfterTick = 60
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	other := resumableConfig()
	other.CheckpointDir = dir
	other.Workloads = other.Workloads[:1] // fewer zones
	if _, err := Run(other); err == nil {
		t.Fatal("checkpoint with a different zone set accepted")
	}

	noFaults := resumableConfig()
	noFaults.CheckpointDir = dir
	noFaults.Faults = nil // the grant stream in the snapshot has no home
	if _, err := Run(noFaults); err == nil {
		t.Fatal("checkpoint with mismatched fault injection accepted")
	}

	dirty := resumableConfig()
	dirty.CheckpointDir = dir
	res, err := Run(dirty)
	if err != nil || res.ResumedFromTick != 60 {
		t.Fatalf("clean resume failed: %v (tick %d)", err, res.ResumedFromTick)
	}
	reuse := resumableConfig()
	reuse.CheckpointDir = dir
	reuse.Centers = dirty.Centers // still hold the previous run's leases
	if _, err := Run(reuse); err == nil {
		t.Fatal("resume over dirty centers accepted")
	}
}

// TestCheckpointFreeRunUnchanged: without CheckpointDir the new code
// paths are inert — the Result matches a run with checkpointing on,
// and ResumedFromTick stays zero.
func TestCheckpointFreeRunUnchanged(t *testing.T) {
	plain, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.ResumedFromTick != 0 {
		t.Fatalf("fresh run reports ResumedFromTick %d", plain.ResumedFromTick)
	}
	ck := resumableConfig()
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEveryTicks = 25
	withCkpt, err := Run(ck)
	if err != nil {
		t.Fatal(err)
	}
	if withCkpt.ResumedFromTick != 0 {
		t.Fatalf("uninterrupted checkpointing run reports ResumedFromTick %d", withCkpt.ResumedFromTick)
	}
	assertResultsEqual(t, plain, withCkpt)
}

// TestCheckpointWriterMatchesCommitted pins the writer to the committed
// core-run@2 file: resumableConfig checkpointed every 50 ticks and
// stopped after tick 137 writes testdata/resumable-tick137.ckpt byte
// for byte, and that payload restored over a fresh engine snapshots
// back to the same bytes.
func TestCheckpointWriterMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "resumable-tick137.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 50
	stopped.StopAfterTick = 137
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(mgr.Path(137))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tick-137 checkpoint is %d bytes, differs from the committed %d", len(got), len(want))
	}

	payload, err := checkpoint.Open(want)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(resumableConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Close()
	from, err := e.restore(payload)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.snapshot(from)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("the restored engine's snapshot differs from the payload it restored")
	}
}
