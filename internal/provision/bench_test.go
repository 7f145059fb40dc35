package provision

import (
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
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
