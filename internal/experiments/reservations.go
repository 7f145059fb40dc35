package experiments

import (
	"fmt"
	"strings"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/series"
	"mmogdc/internal/trace"
)

// Ext04Reservations demonstrates the advance-reservation service model
// of Section II-B: two game operators compete for one small data
// center. The "booking" operator reserves its evening-peak capacity
// every morning, sized from the previous day's observed peak; the
// "reactive" operator leases on demand. Under contention the booked
// capacity is guaranteed, and the reactive operator absorbs the
// shortfall — quantifying what the reservation model buys.
func Ext04Reservations(o Options) (string, error) {
	opts := o.withDefaults()
	days := 5
	if opts.Quick {
		days = 3
	}

	// Two equal games, one trace each (same statistics).
	mk := func(seed uint64) *trace.Dataset {
		return trace.Generate(trace.Config{Seed: seed, Days: days,
			Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 6}}})
	}
	bookerTrace, reactiveTrace := mk(opts.Seed), mk(opts.Seed+1)
	game := mmog.NewGame("contender", mmog.GenreMMORPG)

	// One deliberately tight center: enough for one evening peak but
	// not two.
	run := func(withBooking bool) (bookShort, reactShort float64) {
		var bulk datacenter.Vector
		bulk[datacenter.CPU] = 0.05
		policy := datacenter.HostingPolicy{Name: "tight", Bulk: bulk, TimeBulk: 2 * time.Hour}
		center := datacenter.NewCenter("shared", geo.London, 5, policy)

		demandAt := func(ds *trace.Dataset, t int) float64 {
			var sum float64
			for _, g := range ds.Groups {
				sum += game.DemandForEntities(g.Load.At(t))[datacenter.CPU]
			}
			return sum
		}

		start := bookerTrace.Groups[0].Load.Start
		tick := series.DefaultTick
		samples := bookerTrace.Samples()
		var bookerLeases, reactiveLeases []*datacenter.Lease
		active := func(ls []*datacenter.Lease, now time.Time) float64 {
			var sum float64
			for _, l := range ls {
				if l.Active(now) {
					sum += l.Alloc[datacenter.CPU]
				}
			}
			return sum
		}

		var yesterdayPeak, runningPeak float64
		eveningTicks := 0
		for t := 1; t < samples; t++ {
			now := start.Add(time.Duration(t) * tick)
			center.Expire(now)
			tod := t % trace.SamplesPerDay

			// A new day: yesterday's peak becomes the booking size.
			if tod == 0 {
				yesterdayPeak, runningPeak = runningPeak, 0
			}
			if d := demandAt(bookerTrace, t); d > runningPeak {
				runningPeak = d
			}

			// Morning booking: at 10:00, reserve the evening windows
			// (17:00-23:00) at yesterday's observed peak demand.
			if withBooking && tod == 10*30 && yesterdayPeak > 0 {
				day := t / trace.SamplesPerDay
				for _, h := range []int{17, 19, 21} {
					ws := start.Add(time.Duration(day*trace.SamplesPerDay+h*30) * tick)
					if l, err := center.Reserve(cpuOnly(yesterdayPeak), ws, "booker"); err == nil {
						bookerLeases = append(bookerLeases, l)
					}
				}
			}

			// Both operators top up reactively; arrival order
			// alternates per tick for fairness.
			acquire := func(ds *trace.Dataset, leases *[]*datacenter.Lease, tag string) float64 {
				want := demandAt(ds, t)
				have := active(*leases, now)
				if need := want - have; need > 1e-9 {
					if l, err := center.Lease(cpuOnly(need), now, tag); err == nil {
						*leases = append(*leases, l)
						have += l.Alloc[datacenter.CPU]
					}
				}
				short := want - have
				if short < 0 {
					short = 0
				}
				return short
			}
			var bs, rs float64
			if t%2 == 0 {
				bs = acquire(bookerTrace, &bookerLeases, "booker")
				rs = acquire(reactiveTrace, &reactiveLeases, "reactive")
			} else {
				rs = acquire(reactiveTrace, &reactiveLeases, "reactive")
				bs = acquire(bookerTrace, &bookerLeases, "booker")
			}
			// Score the contended evening hours (17:00-23:00), where
			// the booking strategy makes its stand.
			if hour := tod / 30; hour >= 17 && hour < 23 {
				bookShort += bs
				reactShort += rs
				eveningTicks++
			}
		}
		return bookShort / float64(eveningTicks), reactShort / float64(eveningTicks)
	}

	noBookA, noBookB := run(false)
	bookA, bookB := run(true)

	var b strings.Builder
	b.WriteString("Extension 4 — advance reservations vs purely reactive leasing\n")
	b.WriteString("(two operators on one tight center; mean unserved CPU demand in the contended\nevening hours, 17:00-23:00 [units])\n\n")
	rows := [][]string{
		{"neither books", f3(noBookA), f3(noBookB)},
		{"operator A books evening peaks", f3(bookA), f3(bookB)},
	}
	b.WriteString(table([]string{"scenario", "operator A shortfall", "operator B shortfall"}, rows))
	fmt.Fprintf(&b, "\nBooking the evening windows cuts operator A's shortfall %.1fx (%.3f -> %.3f\n",
		safeRatio(noBookA, bookA), noBookA, bookA)
	b.WriteString("units) by guaranteeing peak capacity before the contention begins; the\n")
	b.WriteString("reactive rival pays for it — the queue-vs-schedule trade-off of Sec. II-B.\n")
	return b.String(), nil
}

// cpuOnly builds a CPU-only demand vector.
func cpuOnly(units float64) datacenter.Vector {
	var v datacenter.Vector
	v[datacenter.CPU] = units
	return v
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
