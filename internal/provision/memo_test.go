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
//
// The step also ends its own leases by a clock up to an hour ahead
// (Step.Expire, the operator's holder-clock path), and a second step on
// the same centers, a game keeping its own clock up to 20 ticks ahead
// of or behind the first, runs the operator's tick (Expire, Prune,
// AllocAt, Acquire) beside its own reference scan. The walk must reach
// both kinds of rescan, clean and not, and after every operation each
// center's Allocated() must equal the sum of its live leases within
// 1e-9 and fit its EffectiveCapacity().
func TestMemoMatchesScan(t *testing.T) {
	var hits, misses int
	var cleanScans, dirtyScans int
	// classify counts the rescan a Prune or AllocAt at at is about to do.
	classify := func(s *Step, at time.Time) {
		switch _, hit, clean := s.memo.check(at); {
		case hit:
		case clean:
			cleanScans++
		default:
			dirtyScans++
		}
	}
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
		s2 := New(Config{Matcher: m, Tag: "y", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &counts})
		var ref2 []*datacenter.Lease
		var ref2Lost []string
		lag := r.Intn(41) - 20
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
		// conserved checks every center's books after an operation.
		conserved := func(op int) {
			t.Helper()
			for _, c := range centers {
				var live datacenter.Vector
				for _, l := range c.Leases() {
					live = live.Add(l.Alloc)
				}
				for i, a := range c.Allocated() {
					if math.Abs(a-live[i]) > 1e-9 {
						t.Fatalf("seed %d op %d: %s allocates %v, its live leases sum to %v", seed, op, c.Name, c.Allocated(), live)
					}
				}
				if !c.Allocated().FitsWithin(c.EffectiveCapacity()) {
					t.Fatalf("seed %d op %d: %s allocates %v beyond its capacity %v", seed, op, c.Name, c.Allocated(), c.EffectiveCapacity())
				}
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
				classify(&s, at)
				got := s.Prune(at)
				var want datacenter.Vector
				want, ref, refLost = refPrune(ref, refLost, at)
				check(op, "Prune", got, want)
				if !slices.Equal(s.Leases(), ref) || !slices.Equal(s.lost, refLost) {
					t.Fatalf("seed %d op %d: Prune kept %d leases and lost %v, scan %d and %v",
						seed, op, len(s.Leases()), s.lost, len(ref), refLost)
				}
				next := at.Add(2 * time.Minute)
				classify(&s, next)
				have := s.AllocAt(next)
				check(op, "AllocAt(next tick)", have, refAllocAt(ref, next))
				want = datacenter.Vector{float64(r.Intn(12))}
				a := s.Acquire(tick, at, want.Sub(have).ClampNonNegative(), r.Intn(4) != 0)
				ref = append(ref, a.Leases...)

				// The second step's tick, by its own clock, as the
				// operator runs it.
				at2 := at.Add(time.Duration(lag) * 2 * time.Minute)
				s2.Expire(at2)
				classify(&s2, at2)
				got = s2.Prune(at2)
				want, ref2, ref2Lost = refPrune(ref2, ref2Lost, at2)
				check(op, "second step's Prune", got, want)
				if !slices.Equal(s2.Leases(), ref2) || !slices.Equal(s2.lost, ref2Lost) {
					t.Fatalf("seed %d op %d: the second step's Prune kept %d leases and lost %v, scan %d and %v",
						seed, op, len(s2.Leases()), s2.lost, len(ref2), ref2Lost)
				}
				next2 := at2.Add(2 * time.Minute)
				classify(&s2, next2)
				have = s2.AllocAt(next2)
				check(op, "second step's AllocAt(next tick)", have, refAllocAt(ref2, next2))
				want = datacenter.Vector{float64(r.Intn(12))}
				a = s2.Acquire(tick+lag, at2, want.Sub(have).ClampNonNegative(), true)
				ref2 = append(ref2, a.Leases...)
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
			case k < 88: // the step ends its own leases by a clock up to an hour ahead
				s.Expire(now().Add(time.Duration(r.Intn(31)) * 2 * time.Minute))
			default: // size against a time behind or ahead of the tick
				at := now().Add(time.Duration(r.Intn(40)-10) * 2 * time.Minute)
				classify(&s, at)
				check(op, "AllocAt", s.AllocAt(at), refAllocAt(ref, at))
			}
			conserved(op)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("memo held on %d prunes and failed on %d: the walk misses a path", hits, misses)
	}
	if cleanScans == 0 || dirtyScans == 0 {
		t.Fatalf("%d clean and %d other rescans: the walk misses a path", cleanScans, dirtyScans)
	}
	t.Logf("prunes: %d memo hits, %d misses; rescans: %d clean, %d other", hits, misses, cleanScans, dirtyScans)
}

// TestExpireDropsMemo pins the memo after Step.Expire. Ending a lease
// by the step's own clock moves neither its center's clock nor its
// early-release count, so the memo must not answer for a time behind
// that clock: with lease A over [0, 10 min) and B over [2, 12 min),
// after Expire at 10 minutes only B is active at 3 minutes.
func TestExpireDropsMemo(t *testing.T) {
	p := datacenter.HostingPolicy{Name: "p", Bulk: datacenter.Vector{1}, TimeBulk: 10 * time.Minute}
	c := datacenter.NewCenter("dc", geo.London, 4, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{c})
	s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &Counts{}})
	s.Acquire(0, t0, datacenter.Vector{1}, true)
	s.Acquire(1, t0.Add(2*time.Minute), datacenter.Vector{1}, true)
	s.Expire(t0.Add(10 * time.Minute))
	at := t0.Add(3 * time.Minute)
	got, want := s.AllocAt(at), refAllocAt(s.Leases(), at)
	if !sameBits(got, want) || want[datacenter.CPU] != 1 {
		t.Fatalf("AllocAt(3 min) after Expire(10 min) = %v, scan says %v (want 1 CPU)", got, want)
	}
}

// edgeTimes are instants around both ends of the int64-nanosecond
// range, and far outside it, that fuzzed checkpoints can restore.
func edgeTimes() []time.Time {
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	return []time.Time{
		{}, lo.Add(-time.Hour), lo.Add(-1), lo, lo.Add(1), lo.Add(time.Second), lo.Add(2 * time.Second),
		t0, t0.Add(time.Hour),
		hi.Add(-2 * time.Second), hi.Add(-time.Second), hi.Add(-1), hi, hi.Add(1), hi.Add(time.Hour),
		time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC),
	}
}

// TestNanosKeepsOrder checks nanos against time.Time's own order: a
// strict order between two results is the times' order, and any order
// between a result inside the int64 range and another result is the
// times' order.
func TestNanosKeepsOrder(t *testing.T) {
	ts := edgeTimes()
	for _, a := range ts {
		na := nanos(a)
		aIn := na != math.MinInt64 && na != math.MaxInt64
		if aIn && na != a.UnixNano() {
			t.Fatalf("nanos(%v) = %d, UnixNano %d", a, na, a.UnixNano())
		}
		for _, b := range ts {
			nb := nanos(b)
			if na < nb && !a.Before(b) {
				t.Fatalf("nanos orders %v before %v", a, b)
			}
			if aIn && (na == nb) != a.Equal(b) {
				t.Fatalf("nanos(%v) = %d, nanos(%v) = %d", a, na, b, nb)
			}
		}
	}
}

// TestMemoOutsideNanoRange restores a book whose leases start and end
// around both ends of the int64-nanosecond range, and at each edge
// time in order sizes against every edge time and prunes, against the
// reference scans.
func TestMemoOutsideNanoRange(t *testing.T) {
	p := datacenter.HostingPolicy{Name: "p", Bulk: datacenter.Vector{1}, TimeBulk: time.Hour}
	c := datacenter.NewCenter("dc", geo.London, 64, p)
	m := ecosystem.NewMatcher([]*datacenter.Center{c})
	s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &Counts{}})
	ts := edgeTimes()
	var ref []*datacenter.Lease
	for i, start := range ts {
		for _, expires := range ts[i+1:] {
			ref = append(ref, &datacenter.Lease{Center: c, Alloc: datacenter.Vector{float64(1 + len(ref)%3)}, Start: start, Expires: expires, Tag: "z"})
		}
	}
	c.Adopt(c, ref)
	s.SetLeases(slices.Clone(ref))
	var lost []string
	for _, now := range ts {
		for _, at := range ts {
			if got, want := s.AllocAt(at), refAllocAt(ref, at); !sameBits(got, want) {
				t.Fatalf("at %v: AllocAt(%v) = %v, scan says %v", now, at, got, want)
			}
		}
		got := s.Prune(now)
		var want datacenter.Vector
		want, ref, lost = refPrune(ref, lost, now)
		if !sameBits(got, want) || !slices.Equal(s.Leases(), ref) {
			t.Fatalf("Prune(%v) = %v over %d leases, scan says %v over %d", now, got, len(s.Leases()), want, len(ref))
		}
	}
}
