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
