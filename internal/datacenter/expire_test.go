package datacenter

import (
	"math"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// refExpire is Expire without the prefix release: a scan of every live
// lease, the reference the prefix path must match.
func refExpire(c *Center, t time.Time) int {
	if t.After(c.watermark) {
		c.watermark = t
	}
	c.activateReservations(t)
	n := 0
	live := c.leases[:0]
	for _, l := range c.leases {
		if !l.released && !t.Before(l.Expires) {
			l.released = true
			c.allocated = c.allocated.Sub(l.Alloc).ClampNonNegative()
			n++
			continue
		}
		live = append(live, l)
	}
	c.leases = live
	if len(c.leases) == 0 {
		c.allocated = Vector{}
	}
	if c.degraded > 0 {
		c.shedToFit()
	}
	return n
}

// TestExpireMatchesScan drives two identical centers through the same
// random leases (one in five at a clock lagging the center's),
// reservations that activate behind later-expiring leases, adopted
// leases with arbitrary windows, early releases, outages and
// degradations. One center expires with Expire, the other with the
// reference scan: every Expire must release as many leases, the
// allocated vectors must stay bit-equal, the live lists must match
// lease for lease, and the same leases must be released. While a
// center claims expiry order, its leases must really be in it.
func TestExpireMatchesScan(t *testing.T) {
	var prefix, scans int
	for seed := uint64(1); seed <= 40; seed++ {
		r := xrand.New(seed)
		p := HostingPolicy{Name: "p", Bulk: Vector{0.5, 1}, TimeBulk: time.Duration(3+r.Intn(30)) * 2 * time.Minute}
		a := NewCenter("dc", geo.London, 30, p)
		b := NewCenter("dc", geo.London, 30, p)
		var la, lb []*Lease // every lease either center handed out, pairwise
		failed := 0
		var degraded []float64
		clock := t0
		for op := 0; op < 1500; op++ {
			switch k := r.Intn(100); {
			case k < 35: // lease, sometimes at a lagging clock
				at := clock
				if r.Intn(5) == 0 {
					at = clock.Add(-time.Duration(r.Intn(30)) * time.Minute)
				}
				req := Vector{0.5 * float64(1+r.Intn(4)), float64(r.Intn(3))}
				x, errA := a.Lease(req, at, "t")
				y, errB := b.Lease(req, at, "t")
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: Lease errors differ: %v vs %v", seed, op, errA, errB)
				}
				if errA == nil {
					la, lb = append(la, x), append(lb, y)
				}
			case k < 43: // an advance reservation
				start := clock.Add(time.Duration(r.Intn(40)) * time.Minute)
				req := Vector{0.5 * float64(1+r.Intn(2))}
				x, errA := a.Reserve(req, start, "t")
				y, errB := b.Reserve(req, start, "t")
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: Reserve errors differ: %v vs %v", seed, op, errA, errB)
				}
				if errA == nil {
					la, lb = append(la, x), append(lb, y)
				}
			case k < 48: // adopt a checkpointed lease with any window
				start := clock.Add(-time.Duration(r.Intn(60)) * time.Minute)
				expires := start.Add(time.Duration(1+r.Intn(120)) * time.Minute)
				x := &Lease{Center: a, Alloc: Vector{0.5}, Start: start, Expires: expires, Tag: "t"}
				y := &Lease{Center: b, Alloc: Vector{0.5}, Start: start, Expires: expires, Tag: "t"}
				a.Adopt(a, []*Lease{x}) // each keeps its own accounting
				b.Adopt(b, []*Lease{y})
				la, lb = append(la, x), append(lb, y)
			case k < 55: // hand back one live lease
				if n := len(a.leases); n > 0 {
					i := r.Intn(n)
					if !a.Release(a.leases[i]) || !b.Release(b.leases[i]) {
						t.Fatalf("seed %d op %d: a live lease was not released", seed, op)
					}
				}
			case k < 60: // outage or recovery
				if failed > 0 && r.Bool(0.6) {
					a.Recover()
					b.Recover()
					failed--
				} else {
					a.Fail()
					b.Fail()
					failed++
				}
			case k < 66: // degradation or restore
				if n := len(degraded); n > 0 && r.Bool(0.5) {
					a.Restore(degraded[n-1])
					b.Restore(degraded[n-1])
					degraded = degraded[:n-1]
				} else {
					f := 0.1 + 0.5*r.Float64()
					a.Degrade(f)
					b.Degrade(f)
					degraded = append(degraded, f)
				}
			default: // the clock advances and both centers expire
				clock = clock.Add(time.Duration(r.Intn(8)) * time.Minute)
				if a.unordered {
					scans++
				} else {
					prefix++
				}
				if na, nb := a.Expire(clock), refExpire(b, clock); na != nb {
					t.Fatalf("seed %d op %d: Expire released %d leases, scan %d", seed, op, na, nb)
				}
			}

			for i := range a.allocated {
				if math.Float64bits(a.allocated[i]) != math.Float64bits(b.allocated[i]) {
					t.Fatalf("seed %d op %d: allocated %v, scan %v", seed, op, a.allocated, b.allocated)
				}
			}
			if len(a.leases) != len(b.leases) {
				t.Fatalf("seed %d op %d: %d live leases, scan %d", seed, op, len(a.leases), len(b.leases))
			}
			for i, x := range a.leases {
				if y := b.leases[i]; x.Alloc != y.Alloc || !x.Start.Equal(y.Start) || !x.Expires.Equal(y.Expires) {
					t.Fatalf("seed %d op %d: live lease %d differs: %+v vs %+v", seed, op, i, x, y)
				}
			}
			for i := range la {
				if la[i].released != lb[i].released {
					t.Fatalf("seed %d op %d: lease %d released=%v, scan %v", seed, op, i, la[i].released, lb[i].released)
				}
			}
			if !a.unordered && !slices.IsSortedFunc(a.leases, func(x, y *Lease) int { return x.Expires.Compare(y.Expires) }) {
				t.Fatalf("seed %d op %d: leases out of expiry order while the center claims order", seed, op)
			}
		}
	}
	if prefix == 0 || scans == 0 {
		t.Fatalf("%d prefix expiries and %d scans: the walk misses a path", prefix, scans)
	}
}
