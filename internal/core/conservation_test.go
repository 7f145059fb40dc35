package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
)

// checkLeaseBooks fails t unless the engine's lease books are
// conserved: no center allocates beyond its effective capacity, each
// center's allocation equals its live leases' sum within 1e-9 per
// component, every lease in a center's book is live, of that center and
// in exactly one zone's book, and every lease in a zone's book is
// released or in its own center's book.
func checkLeaseBooks(t *testing.T, what string, e *engine) {
	t.Helper()
	zoneBooks := map[*datacenter.Lease]int{}
	for i := range e.zones {
		z := &e.zones[i]
		for _, l := range z.step.Leases() {
			zoneBooks[l]++
			if !l.Released() && !slices.Contains(l.Center.Leases(), l) {
				t.Fatalf("%s: zone %s holds a live lease missing from %s's book", what, z.tag, l.Center.Name)
			}
		}
	}
	for _, c := range e.cfg.Centers {
		var sum datacenter.Vector
		for _, l := range c.Leases() {
			if l.Released() || l.Center != c {
				t.Fatalf("%s: %s's book holds a lease released %v, of %s", what, c.Name, l.Released(), l.Center.Name)
			}
			if n := zoneBooks[l]; n != 1 {
				t.Fatalf("%s: a lease of %s is in %d zone books", what, c.Name, n)
			}
			sum = sum.Add(l.Alloc)
		}
		for r, a := range c.Allocated() {
			if math.Abs(a-sum[r]) > 1e-9 {
				t.Fatalf("%s: %s allocates %v, its live leases sum to %v", what, c.Name, c.Allocated(), sum)
			}
		}
		if !c.Allocated().FitsWithin(c.EffectiveCapacity()) {
			t.Fatalf("%s: %s allocates %v beyond its capacity %v", what, c.Name, c.Allocated(), c.EffectiveCapacity())
		}
	}
}

// TestLeasesConservedAcrossCoreResume stops runs at several ticks,
// restores each checkpoint over fresh centers and checks the lease
// books (checkLeaseBooks) before the resumed run goes on to the
// uninterrupted Result. resumableConfig runs under four fault seeds and
// stops before, inside (tick 133) and after its scheduled outage of
// ticks 130–135; the blackout scenario of
// TestCheckpointResumeMidRegionBlackout stops inside each of its two
// region blackouts.
func TestLeasesConservedAcrossCoreResume(t *testing.T) {
	type scenario struct {
		mk   func() Config
		stop int
	}
	var cases []scenario
	for seed := uint64(5); seed <= 8; seed++ {
		mk := func() Config {
			cfg := resumableConfig()
			cfg.Faults.Seed = seed
			return cfg
		}
		for _, stop := range []int{47, 133, 211} {
			cases = append(cases, scenario{mk, stop})
		}
	}
	blackout := func() Config {
		cfg := blackoutConfig()
		cfg.FailoverBudgetPerTick = 1
		cfg.Brownout = true
		cfg.BrownoutReserveFrac = 0.1
		cfg.Faults.ScheduledBlackouts = append(cfg.Faults.ScheduledBlackouts,
			faults.RegionBlackout{Region: "na-east", Start: 490, Duration: 20})
		cfg.TrackCenters = true
		return cfg
	}
	cases = append(cases, scenario{blackout, 485}, scenario{blackout, 500})

	for _, c := range cases {
		ref, err := Run(c.mk())
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		stopped := c.mk()
		stopped.CheckpointDir = dir
		stopped.CheckpointEveryTicks = 50
		stopped.StopAfterTick = c.stop
		if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
			t.Fatalf("stopped run returned %v, want ErrStopped", err)
		}
		cfg := c.mk()
		cfg.CheckpointDir = dir
		cfg.CheckpointEveryTicks = 50
		e, err := newEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		from, err := e.resume()
		if err != nil || from != c.stop {
			t.Fatalf("resumed from tick %d (%v), want %d", from, err, c.stop)
		}
		what := fmt.Sprintf("fault seed %d, stop %d", cfg.Faults.Seed, c.stop)
		checkLeaseBooks(t, what, e)
		res, err := e.run(from)
		e.pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, ref, res)
	}
}
