package provision

import (
	"math"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/obs"
)

// steadyStep returns a step holding 24 one-CPU leases, acquired one a
// tick, that outlast any query: a sim-paper server group's book, whose
// 360-minute leases outlive the 2-minute tick 180 times over.
func steadyStep() *Step {
	p := datacenter.HostingPolicy{Name: "HP", Bulk: datacenter.Vector{1}, TimeBulk: 1000 * time.Hour}
	c := datacenter.NewCenter("dc", geo.London, 100, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{c})
	s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &Counts{}})
	for i := 0; i < 24; i++ {
		now := t0.Add(time.Duration(i) * 2 * time.Minute)
		m.Expire(now)
		s.Acquire(i, now, datacenter.Vector{1}, true)
	}
	return &s
}

// steadyTick is the step's share of one tick with nothing expiring:
// Prune at now, then AllocAt at the next tick.
func steadyTick(s *Step, i int) datacenter.Vector {
	now := t0.Add(time.Duration(24+i%1000) * 2 * time.Minute)
	return s.Prune(now).Add(s.AllocAt(now.Add(2 * time.Minute)))
}

// TestSteadyStepAllocFree pins the tick BenchmarkStepSteadyState times
// at zero allocations.
func TestSteadyStepAllocFree(t *testing.T) {
	s := steadyStep()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if sum := steadyTick(s, i); sum[datacenter.CPU] != 48 {
			t.Fatalf("the book sums to %v CPU twice, want 24 twice", sum[datacenter.CPU])
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a steady-state tick allocates %v", allocs)
	}
}

var sinkVector datacenter.Vector

// BenchmarkStepSteadyState times Prune + AllocAt on the 24-lease book
// of steadyStep with nothing expiring.
func BenchmarkStepSteadyState(b *testing.B) {
	s := steadyStep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = steadyTick(s, i)
	}
}

// rescanBook is the book rescanStep keeps: 33 leases, about what a
// sim-paper server group holds when one of its leases ends.
const rescanBook = 33

// rescanStep returns a step that has acquired one one-CPU lease a tick
// for rescanBook ticks, each lasting rescanBook ticks, so that from
// then on one lease ends on every tick.
func rescanStep() (*Step, *ecosystem.Matcher) {
	p := datacenter.HostingPolicy{Name: "HP", Bulk: datacenter.Vector{1}, TimeBulk: rescanBook * 2 * time.Minute}
	c := datacenter.NewCenter("dc", geo.London, 100, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{c})
	s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &Counts{}})
	for i := 0; i < rescanBook; i++ {
		now := t0.Add(time.Duration(i) * 2 * time.Minute)
		m.Expire(now)
		s.Acquire(i, now, datacenter.Vector{1}, true)
	}
	return &s, m
}

// rescanTick is core.Run's share of tick i for one zone whose oldest
// lease ends at the tick: the matcher expires it at its center, Prune
// drops it, AllocAt sizes the next tick's gap (another lease ends
// then), and Acquire wins the one lease that closes it. It returns the
// live allocation Prune scored.
func rescanTick(s *Step, m *ecosystem.Matcher, i int) datacenter.Vector {
	now := t0.Add(time.Duration(i) * 2 * time.Minute)
	m.Expire(now)
	have := s.Prune(now)
	want := datacenter.Vector{rescanBook - 1}
	s.Acquire(i, now, want.Sub(s.AllocAt(now.Add(2*time.Minute))).ClampNonNegative(), true)
	return have
}

// BenchmarkStepRescan times rescanTick: with a lease ending on every
// tick, both Prune and AllocAt rescan the book, which the memo spares
// BenchmarkStepSteadyState.
func BenchmarkStepRescan(b *testing.B) {
	s, m := rescanStep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = rescanTick(s, m, rescanBook+i)
	}
}

// provenanceStep returns a step on Table III's 17 centers whose
// matcher records into a one-slot DecisionLog when log is set, with a
// Telemetry whose recorder takes the events: core.Run's provenance.
func provenanceStep(log bool) *Step {
	m := ecosystem.NewMatcher(datacenter.BuildCenters(datacenter.TableIIISites(), datacenter.Policies()[:2]))
	if log {
		m.SetDecisionLog(ecosystem.NewDecisionLog(1))
	}
	s := New(Config{
		Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: math.Inf(1), Counts: &Counts{},
		Telemetry: &Telemetry{Recorder: obs.NewRecorder(1024), Spans: noSpans{}},
	})
	return &s
}

// provenanceTick acquires one CPU bulk, which the first-ranked center
// meets, so a decision gives the other 16 centers their not-needed
// verdicts; it then hands the lease back, so every tick walks alike.
func provenanceTick(s *Step, i int) {
	s.Acquire(i, t0, datacenter.Vector{0.25}, true)
	s.Release()
}

// TestStepProvenanceAllocs pins what BenchmarkStepProvenance allocates
// at what the same walk allocates without a log: the one lease it wins.
func TestStepProvenanceAllocs(t *testing.T) {
	for _, log := range []bool{false, true} {
		s := provenanceStep(log)
		i := 0
		provenanceTick(s, i) // the first tick grows the books and interns the details
		allocs := testing.AllocsPerRun(100, func() {
			i++
			provenanceTick(s, i)
		})
		if allocs != 1 {
			t.Errorf("log %v: a tick allocates %v, want the one lease", log, allocs)
		}
	}
	s := provenanceStep(true)
	provenanceTick(s, 0)
	tail := len(s.m.Centers()) - 1
	if got := s.tel.Recorder.Events(); len(got) != 2 || strings.Count(got[1].Detail, "=not-needed") != tail {
		t.Fatalf("events %+v, want a grant and a decision with a %d-verdict not-needed tail", got, tail)
	}
}

// BenchmarkStepProvenance times provenanceTick with provenance on: the
// matcher's walk, its decision, and the grant and decision events.
func BenchmarkStepProvenance(b *testing.B) {
	s := provenanceStep(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		provenanceTick(s, i)
	}
}
