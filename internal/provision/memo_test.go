package provision

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// refPrune and refAllocAt are Prune and AllocAt without the memo: full
// scans of the lease book, the reference the memoized step must match.
func refPrune(book []*datacenter.Lease, lost []string, now time.Time) (datacenter.Vector, []*datacenter.Lease, []string) {
	var sum datacenter.Vector
	lost = lost[:0]
	live := book[:0]
	for _, l := range book {
		if l.Active(now) {
			sum = sum.Add(l.Alloc)
			live = append(live, l)
			continue
		}
		if l.Center != nil && now.Before(l.Expires) && !now.Before(l.Start) &&
			!slices.Contains(lost, l.Center.Name) {
			lost = append(lost, l.Center.Name)
		}
	}
	return sum, live, lost
}

func refAllocAt(book []*datacenter.Lease, t time.Time) datacenter.Vector {
	var sum datacenter.Vector
	for _, l := range book {
		if l.Active(t) {
			sum = sum.Add(l.Alloc)
		}
	}
	return sum
}

func sameBits(a, b datacenter.Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMemoMatchesScan drives a memoized step beside the reference scan
// over four centers with time bulks of 3 to 30 ticks, through random
// acquisitions, expiries at center clocks up to an hour ahead of the
// step, outages, degradations, single-lease hand-backs, whole-book
// releases and restores with tombstones. Every Prune and AllocAt,
// including AllocAt at times before and after the step's tick, must
// equal the scan bit for bit, and Prune must keep the same book and
// name the same lost centers.
func TestMemoMatchesScan(t *testing.T) {
	var hits, misses int
	for seed := uint64(1); seed <= 30; seed++ {
		r := xrand.New(seed)
		var centers []*datacenter.Center
		for i, bulk := range []time.Duration{6 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour} {
			p := datacenter.HostingPolicy{
				Name: "p" + strconv.Itoa(i), Bulk: datacenter.Vector{0.5 * float64(1+i%2)}, TimeBulk: bulk,
			}
			centers = append(centers, datacenter.NewCenter("dc"+strconv.Itoa(i), geo.London, 4+r.Intn(8), p))
		}
		m := ecosystem.NewMatcher(centers)
		var counts Counts
		s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &counts})
		var ref []*datacenter.Lease
		var refLost []string
		failed := make([]int, len(centers))
		degraded := make([][]float64, len(centers))
		tick := 0
		now := func() time.Time { return t0.Add(time.Duration(tick) * 2 * time.Minute) }
		check := func(op int, what string, got, want datacenter.Vector) {
			t.Helper()
			if !sameBits(got, want) {
				t.Fatalf("seed %d op %d tick %d: %s = %v, scan says %v", seed, op, tick, what, got, want)
			}
		}

		for op := 0; op < 2000; op++ {
			k := r.Intn(100)
			switch {
			case k < 35: // one tick: prune, size the gap, acquire
				tick++
				at := now()
				if s.memo.holds(at) {
					hits++
				} else {
					misses++
				}
				got := s.Prune(at)
				var want datacenter.Vector
				want, ref, refLost = refPrune(ref, refLost, at)
				check(op, "Prune", got, want)
				if !slices.Equal(s.Leases(), ref) || !slices.Equal(s.lost, refLost) {
					t.Fatalf("seed %d op %d: Prune kept %d leases and lost %v, scan %d and %v",
						seed, op, len(s.Leases()), s.lost, len(ref), refLost)
				}
				next := at.Add(2 * time.Minute)
				have := s.AllocAt(next)
				check(op, "AllocAt(next tick)", have, refAllocAt(ref, next))
				want = datacenter.Vector{float64(r.Intn(12))}
				a := s.Acquire(tick, at, want.Sub(have).ClampNonNegative(), r.Intn(4) != 0)
				ref = append(ref, a.Leases...)
			case k < 47: // every center's clock runs up to an hour ahead
				m.Expire(now().Add(time.Duration(r.Intn(31)) * 2 * time.Minute))
			case k < 55: // one center's clock runs ahead
				centers[r.Intn(len(centers))].Expire(now().Add(time.Duration(r.Intn(31)) * 2 * time.Minute))
			case k < 61: // outage or recovery
				i := r.Intn(len(centers))
				if failed[i] > 0 && r.Bool(0.6) {
					centers[i].Recover()
					failed[i]--
				} else {
					centers[i].Fail()
					failed[i]++
				}
			case k < 68: // degradation or restore
				i := r.Intn(len(centers))
				if n := len(degraded[i]); n > 0 && r.Bool(0.5) {
					centers[i].Restore(degraded[i][n-1])
					degraded[i] = degraded[i][:n-1]
				} else {
					f := 0.1 + 0.6*r.Float64()
					centers[i].Degrade(f)
					degraded[i] = append(degraded[i], f)
				}
			case k < 76: // a center hands back one lease of the book
				if len(ref) > 0 {
					l := ref[r.Intn(len(ref))]
					l.Center.Release(l)
				}
			case k < 79: // the step gives up its whole book
				s.Release()
				ref = ref[:0]
			case k < 83: // restore: keep some leases, tombstone others
				var book []*datacenter.Lease
				for _, l := range ref {
					switch r.Intn(3) {
					case 0:
						book = append(book, l)
					case 1:
						book = append(book, datacenter.Tombstone(l.Center, l.Alloc, l.Start, l.Expires, l.Tag))
					}
				}
				s.SetLeases(slices.Clone(book))
				ref = book
			default: // size against a time behind or ahead of the tick
				at := now().Add(time.Duration(r.Intn(40)-10) * 2 * time.Minute)
				check(op, "AllocAt", s.AllocAt(at), refAllocAt(ref, at))
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("memo held on %d prunes and failed on %d: the walk misses a path", hits, misses)
	}
}
