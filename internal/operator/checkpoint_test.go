package operator

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/xrand"
)

// TestObserveRejectsZoneCountMismatchBeforeSideEffects is the
// regression test for the silent-mismatch bug: a snapshot with the
// wrong zone count must be rejected up front, leaving the tick
// counter, metrics, lease book, and LOCF buffer untouched.
func TestObserveRejectsZoneCountMismatchBeforeSideEffects(t *testing.T) {
	op := testOperator(t, 10)
	if err := op.Observe(t0, []float64{800, 600}); err != nil {
		t.Fatal(err)
	}
	before := op.Metrics()
	beforeLoads := append([]float64(nil), op.lastLoads...)
	beforeLeases := len(op.step.Leases())
	for _, bad := range [][]float64{{800}, {800, 600, 400}, nil} {
		if err := op.Observe(t0.Add(2*time.Minute), bad); err == nil {
			t.Fatalf("zone count %d accepted (want 2)", len(bad))
		}
	}
	if got := op.Metrics(); got != before {
		t.Fatalf("rejected snapshots mutated metrics: %+v -> %+v", before, got)
	}
	if !reflect.DeepEqual(op.lastLoads, beforeLoads) {
		t.Fatalf("rejected snapshots mutated LOCF buffer: %v", op.lastLoads)
	}
	if len(op.step.Leases()) != beforeLeases {
		t.Fatal("rejected snapshots mutated the lease book")
	}
	// A valid snapshot still works afterwards.
	if err := op.Observe(t0.Add(2*time.Minute), []float64{810, 590}); err != nil {
		t.Fatal(err)
	}
	if op.Metrics().Ticks != 2 {
		t.Fatalf("ticks = %d", op.Metrics().Ticks)
	}
}

func TestObserveRejectsEmptyFirstSnapshot(t *testing.T) {
	op := testOperator(t, 10)
	if err := op.Observe(t0, nil); err == nil {
		t.Fatal("empty first snapshot accepted")
	}
	if op.Metrics().Ticks != 0 {
		t.Fatal("rejected first snapshot advanced the tick counter")
	}
}

func checkpointConfig(m *ecosystem.Matcher) Config {
	return Config{
		Game:      mmog.NewGame("ckpt", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewAR(3, 6, 32),
		Matcher:   m,
	}
}

func runTicks(t *testing.T, op *Operator, from, n int, loads []float64) time.Time {
	t.Helper()
	now := t0.Add(time.Duration(from) * 2 * time.Minute)
	for i := 0; i < n; i++ {
		if err := op.Observe(now, loads); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	return now
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := testMatcher(20)
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := runTicks(t, op, 0, 20, []float64{700, 500, 300})

	payload, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, rec, err := FromSnapshot(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The ecosystem is untouched since the checkpoint: every lease is
	// still live and must be adopted, nothing lost, nothing orphaned.
	if rec.Adopted == 0 || rec.Lost != 0 || rec.Orphaned != 0 {
		t.Fatalf("reconciliation = %+v", rec)
	}
	if got, want := restored.Metrics(), op.Metrics(); got != want {
		t.Fatalf("restored metrics %+v, want %+v", got, want)
	}
	fa, fb := op.Forecast(), restored.Forecast()
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			t.Fatalf("forecast[%d] %v vs %v", i, fa[i], fb[i])
		}
	}
	// The restored operator keeps provisioning cleanly.
	for i := 0; i < 10; i++ {
		if err := restored.Observe(now, []float64{700, 500, 300}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	if s := restored.Metrics().AvgShortfall; s > 0.1 {
		t.Fatalf("restored operator shortfall = %v", s)
	}
}

func TestCheckpointBeforeFirstObserve(t *testing.T) {
	m := testMatcher(5)
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := FromSnapshot(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The zone count is still unfixed; the first Observe decides it.
	if err := restored.Observe(t0, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsDamage(t *testing.T) {
	m := testMatcher(20)
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, op, 0, 10, []float64{600, 400})
	payload, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Bit flips are caught by the sealed framing checkpoint.Manager
	// writes (checkpoint.TestSealOpenDetectsDamage); a truncated or
	// extended payload must fail to decode.
	if _, _, err := FromSnapshot(cfg, payload[:len(payload)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, _, err := FromSnapshot(cfg, append(slices.Clip(payload), 0)); err == nil {
		t.Fatal("checkpoint with trailing bytes accepted")
	}
	// A checkpoint from another game must be refused.
	other := cfg
	other.Game = mmog.NewGame("other-game", mmog.GenreMMORPG)
	if _, _, err := FromSnapshot(other, payload); err == nil {
		t.Fatal("checkpoint for a different game accepted")
	}
}

func TestRestoreReconcilesLostAndOrphanedLeases(t *testing.T) {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	alpha := datacenter.NewCenter("alpha", geo.London, 8, p)
	beta := datacenter.NewCenter("beta", geo.London, 40, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{alpha, beta})
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Load exceeding alpha's capacity spreads leases over both centers.
	now := runTicks(t, op, 0, 8, []float64{9000, 7000})
	payload, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// After the checkpoint: the doomed operator keeps working (orphan
	// leases the checkpoint cannot know), then alpha dies (checkpointed
	// leases that did not survive).
	runTicksAt(t, op, now, 2, []float64{12000, 9000})
	orphans := 0
	for _, c := range m.Centers() {
		for range c.LeasesByTag(cfg.Game.Name) {
			orphans++
		}
	}
	alpha.Fail()

	restored, rec, err := FromSnapshot(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Adopted == 0 {
		t.Fatalf("no leases adopted: %+v", rec)
	}
	if rec.Lost == 0 {
		t.Fatalf("alpha's failure lost no checkpointed leases: %+v", rec)
	}
	if rec.Orphaned == 0 {
		t.Fatalf("post-checkpoint leases were not orphaned: %+v", rec)
	}
	if rec.Adopted+rec.Orphaned > orphans+rec.Adopted {
		t.Fatalf("accounting mismatch: %+v vs %d live", rec, orphans)
	}
	// Orphans are gone from the ecosystem: only adopted leases remain.
	live := 0
	for _, c := range m.Centers() {
		live += len(c.LeasesByTag(cfg.Game.Name))
	}
	if live != rec.Adopted {
		t.Fatalf("ecosystem holds %d game leases after restore, want %d adopted", live, rec.Adopted)
	}
	// The tombstones steer the first tick's failover away from alpha.
	now = now.Add(4 * time.Minute)
	if err := restored.Observe(now, []float64{9000, 7000}); err != nil {
		t.Fatal(err)
	}
	if restored.Metrics().Failovers == 0 {
		t.Fatal("restore after center loss triggered no failover")
	}
	if got := alpha.Allocated()[datacenter.CPU]; got != 0 {
		t.Fatalf("failover re-leased %v CPU from the dead center", got)
	}
}

// TestFromSnapshotRejectsCorruptLeaseCount is the regression test for
// the restore panic: a lease count no payload can back (negative, or
// far beyond the bytes left) must be an error, never a makeslice panic
// or an allocation sized by the corrupt count.
func TestFromSnapshotRejectsCorruptLeaseCount(t *testing.T) {
	cfg := checkpointConfig(testMatcher(5))
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh operator's snapshot ends with its (zero) lease count.
	head := slices.Clip(payload[:len(payload)-8])
	for _, n := range []int64{-1, 1 << 20, 1<<20 + 1, math.MaxInt64} {
		bad := binary.LittleEndian.AppendUint64(head, uint64(n))
		if _, _, err := FromSnapshot(cfg, bad); err == nil {
			t.Errorf("lease count %d accepted", n)
		}
	}
}

// FuzzOperatorFromSnapshot feeds corrupt payloads to the restore path.
// Every input must be refused with an error, never a panic, or restore
// an operator that observes again and whose snapshot p1 is a fixed
// point: restored over a fresh matcher, p1 snapshots to p1 again.
// Leases a fresh matcher cannot adopt become tombstones, which Snapshot
// leaves out. The seed corpus (testdata/fuzz) holds a real mid-run
// snapshot and the negative lease-count payload that used to panic;
// beside them, the pinned operator@3 payload cut inside its zone
// section, and with its first predictor's section length one off
// either way.
func FuzzOperatorFromSnapshot(f *testing.F) {
	pin, err := os.ReadFile(filepath.Join("testdata", "operator3-faulted.payload"))
	if err != nil {
		f.Fatal(err)
	}
	// The zone section's length word follows the kind, the game name and
	// the zone count; the first predictor's follows the set's zone count.
	at := 8 + len(payloadKind) + 8 + len("ckpt") + 8
	f.Add(pin[:at+8+int(binary.LittleEndian.Uint64(pin[at:]))/2])
	for _, d := range []uint64{1, math.MaxUint64} { // +1, -1
		p := slices.Clone(pin)
		binary.LittleEndian.PutUint64(p[at+16:], binary.LittleEndian.Uint64(p[at+16:])+d)
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, _, err := FromSnapshot(checkpointConfig(testMatcher(20)), payload)
		if err != nil {
			return
		}
		p1, err := op.Snapshot()
		if err != nil {
			t.Fatalf("restored operator cannot snapshot: %v", err)
		}
		again, _, err := FromSnapshot(checkpointConfig(testMatcher(20)), p1)
		if err != nil {
			t.Fatalf("a restored operator's snapshot was refused: %v", err)
		}
		if p2, err := again.Snapshot(); err != nil || !bytes.Equal(p2, p1) {
			t.Fatalf("restoring a restored operator's snapshot changed it (%v)", err)
		}
		if n := op.ZoneCount(); n > 0 {
			// A valid restore keeps provisioning; the error, if any, is
			// the operator's to report.
			_ = op.Observe(t0.Add(24*time.Hour), make([]float64, n))
		}
	})
}

func runTicksAt(t *testing.T, op *Operator, now time.Time, n int, loads []float64) time.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := op.Observe(now, loads); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	return now
}

func TestShutdownReleasesLeasesAndFlushesCheckpoint(t *testing.T) {
	m := testMatcher(20)
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, op, 0, 12, []float64{900, 700})
	if m.Centers()[0].Allocated()[datacenter.CPU] == 0 {
		t.Fatal("setup leased nothing")
	}
	ticksBefore := op.Metrics().Ticks

	op.Shutdown()
	final, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Centers() {
		if got := c.Allocated()[datacenter.CPU]; got != 0 {
			t.Fatalf("center %s still holds %v CPU after shutdown", c.Name, got)
		}
		if n := len(c.LeasesByTag(cfg.Game.Name)); n != 0 {
			t.Fatalf("center %s still lists %d game leases", c.Name, n)
		}
	}
	restored, rec, err := FromSnapshot(cfg, final)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Adopted != 0 || rec.Lost != 0 || rec.Orphaned != 0 {
		t.Fatalf("clean-shutdown checkpoint reconciled %+v, want zeros", rec)
	}
	if restored.Metrics().Ticks != ticksBefore {
		t.Fatalf("restored ticks = %d, want %d", restored.Metrics().Ticks, ticksBefore)
	}
	if len(restored.step.Leases()) != 0 {
		t.Fatal("clean-shutdown checkpoint restored a lease book")
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	m := testMatcher(200)
	cfg := Config{
		Game:      mmog.NewGame("bench", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewAR(4, 8, 64),
		Matcher:   m,
	}
	op, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, 50)
	for i := range loads {
		loads[i] = 400 + 10*float64(i)
	}
	now := t0
	for i := 0; i < 64; i++ {
		if err := op.Observe(now, loads); err != nil {
			b.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := op.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(checkpoint.Seal(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// pinnedRun is a deterministic operator run whose snapshot exercises
// every part of the operator@3 layout: two centers, one grant in eight
// rejected and one trimmed, a dropped sample, and a center failure the
// operator fails over from. It returns the config, over the run's
// matcher, and the operator after its last tick.
func pinnedRun(t *testing.T) (Config, *Operator) {
	t.Helper()
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	alpha := datacenter.NewCenter("alpha", geo.London, 12, p)
	beta := datacenter.NewCenter("beta", geo.Amsterdam, 40, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{alpha, beta})
	m.SetFaultInjector(grantDice{xrand.New(4)})
	cfg := checkpointConfig(m)
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 30; i++ {
		loads := []float64{9000 + 150*float64(i%7), 6000 - 100*float64(i%5), 3000}
		if i == 11 {
			loads[1] = math.NaN()
		}
		if i == 20 {
			alpha.Fail()
		}
		if err := op.Observe(now, loads); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	return cfg, op
}

// TestOperatorWriterMatchesCommitted pins the operator@3 byte layout:
// pinnedRun's snapshot equals testdata/operator3-faulted.payload, and
// that payload, restored over the run's matcher, snapshots back to the
// same bytes.
func TestOperatorWriterMatchesCommitted(t *testing.T) {
	cfg, op := pinnedRun(t)
	if m := op.Metrics(); m.DroppedSamples == 0 || m.Rejections == 0 || m.Retries == 0 || m.Failovers == 0 {
		t.Fatalf("the pinned run does not drop, reject, retry and fail over: %+v", m)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "operator3-faulted.payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot is %d bytes, differs from the committed %d", len(got), len(want))
	}
	restored, rec, err := FromSnapshot(cfg, want)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Lost != 0 || rec.Orphaned != 0 {
		t.Fatalf("restore over the run's own matcher reconciled %+v", rec)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("the restored operator's snapshot differs from the payload it restored")
	}
}
