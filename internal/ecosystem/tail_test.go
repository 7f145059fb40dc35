package ecosystem

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/trace"
	"mmogdc/internal/xrand"
)

// renderCodes renders a coded walk the way AppendWalk renders the
// verdicts: each code's center, by its index in m, and disposition.
func renderCodes(m *Matcher, codes []byte) string {
	var b []byte
	for i := 0; i < len(codes); i += codeBytes {
		c := binary.LittleEndian.Uint32(codes[i:])
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m.centers[c>>4].Name...)
		b = append(b, '=')
		b = append(b, dispositions[c&15]...)
	}
	return string(b)
}

// newest returns the log's newest slot.
func newest(l *DecisionLog) *Decision {
	return &l.ring[(l.next+len(l.ring)-1)%len(l.ring)]
}

// TestNotNeededTailMatchesLoop runs the walk beside refAllocateDetailed,
// the per-candidate loop that gives each unreached candidate its
// not-needed verdict one at a time, on two copies of Table III's 17
// centers. The requests come from every trace region's origin, with
// exclusion lists, finite, infinite and NaN latency bounds, grant
// rejections and trims from twin fault streams, centers that fail,
// degrade and fill up, and demands met at every position of the walk.
// Leases, unmet demand, the fault outcome and every decision must be
// equal, verdict for verdict; each decision's codes must name its
// matcher and render exactly the bytes AppendWalk gives; and the
// copies Snapshot and Synthesize make must carry no codes.
func TestNotNeededTailMatchesLoop(t *testing.T) {
	sites := datacenter.TableIIISites()
	var origins []geo.Point
	for _, r := range trace.DefaultRegions() {
		origins = append(origins, r.Location)
	}
	bounds := []float64{0, 50, 1000, 2000, 4000, 9000, math.Inf(1), math.NaN()}
	// metAt counts the decisions by the number of verdicts before their
	// not-needed tail.
	metAt := make([]int, 17)
	for seed := uint64(1); seed <= 6; seed++ {
		r := xrand.New(seed)
		ca := datacenter.BuildCenters(sites, datacenter.Policies()[:2])
		cb := datacenter.BuildCenters(sites, datacenter.Policies()[:2])
		ma, mb := NewMatcher(ca), NewMatcher(cb)
		ma.SetFaultInjector(streamFaults{xrand.New(seed + 100)})
		mb.SetFaultInjector(streamFaults{xrand.New(seed + 100)})
		la, lb := NewDecisionLog(3), NewDecisionLog(3)
		ma.SetDecisionLog(la)
		mb.SetDecisionLog(lb)
		order, down := make([]int, len(ca)), []int(nil)
		for i := range order {
			order[i] = i
		}

		for op := 0; op < 3000; op++ {
			now := t0.Add(time.Duration(op) * 2 * time.Minute)
			if op%5 == 0 {
				ma.Expire(now)
				mb.Expire(now)
			}
			switch i, u := r.Intn(len(ca)), r.Float64(); {
			case u < 0.03:
				// A new outage: up to all but one center down at once.
				for _, j := range down {
					ca[j].Recover()
					cb[j].Recover()
				}
				r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				down = order[:r.Intn(len(ca))]
				for _, j := range down {
					ca[j].Fail()
					cb[j].Fail()
				}
			case u < 0.05:
				ca[i].Degrade(0.5)
				cb[i].Degrade(0.5)
			case u < 0.07:
				ca[i].Restore(0.5)
				cb[i].Restore(0.5)
			}
			maxKm := bounds[r.Intn(len(bounds))]
			var exclude []string
			if r.Bool(0.3) {
				for _, c := range ca {
					if r.Bool(0.15) {
						exclude = append(exclude, c.Name)
					}
				}
			}
			// Mostly a bulk or two, so the walk stops early; now and
			// then enough to drain whole centers.
			cpu := 0.3 * r.Float64()
			if r.Bool(0.2) {
				cpu = 40 * r.Float64()
			}
			req := Request{
				Tag: "z", Origin: origins[r.Intn(len(origins))], MaxDistanceKm: maxKm, Exclude: exclude,
				Demand: datacenter.Vector{cpu, 2 * r.Float64()},
			}
			ga, ua, oa := ma.AllocateDetailed(nil, req, now)
			gb, ub, ob := refAllocateDetailed(mb, nil, req, now)

			if len(ga) != len(gb) {
				t.Fatalf("seed %d op %d: %d leases, loop %d", seed, op, len(ga), len(gb))
			}
			for i := range ga {
				if ga[i].Center.Name != gb[i].Center.Name || ga[i].Alloc != gb[i].Alloc {
					t.Fatalf("seed %d op %d: lease %d is %s %v, loop %s %v", seed, op, i, ga[i].Center.Name, ga[i].Alloc, gb[i].Center.Name, gb[i].Alloc)
				}
			}
			if ua != ub || oa.Rejections != ob.Rejections || oa.PartialGrants != ob.PartialGrants || !slices.Equal(oa.RejectedBy, ob.RejectedBy) {
				t.Fatalf("seed %d op %d: unmet %v outcome %+v, loop %v %+v", seed, op, ua, oa, ub, ob)
			}
			d, e := oa.Decision, ob.Decision
			if (d == nil) != (e == nil) {
				t.Fatalf("seed %d op %d: decision recorded on one side only", seed, op)
			}
			if d == nil {
				continue
			}
			if d.Seq != e.Seq || d.Tag != e.Tag || !sameFloat(d.UnmetCPU, e.UnmetCPU) || !slices.EqualFunc(d.Candidates, e.Candidates, sameVerdict) {
				t.Fatalf("seed %d op %d: decision\n%+v\nloop\n%+v", seed, op, *d, *e)
			}
			by, codes := d.Coded()
			if by != ma || len(codes) != codeBytes*len(d.Candidates) {
				t.Fatalf("seed %d op %d: coded by %p with %d code bytes for %d verdicts, want %p", seed, op, by, len(codes), len(d.Candidates), ma)
			}
			if got, want := renderCodes(ma, codes), string(d.AppendWalk(nil)); got != want {
				t.Fatalf("seed %d op %d: codes render\n%s\nAppendWalk\n%s", seed, op, got, want)
			}
			if i := slices.IndexFunc(d.Candidates, func(v CandidateVerdict) bool { return v.Disposition == DispNotNeeded }); i >= 0 {
				metAt[i]++
			}

			if op%97 == 0 {
				la.Synthesize(*d)
				if m, c := newest(la).Coded(); m != nil || c != nil {
					t.Fatalf("seed %d op %d: a synthesized copy of a decision carries codes", seed, op)
				}
				lb.Synthesize(*e)
			}
			for _, s := range la.Snapshot() {
				if m, c := s.Coded(); m != nil || c != nil {
					t.Fatalf("seed %d op %d: a snapshot copy carries codes", seed, op)
				}
			}
		}
	}
	// The tail started at every position a walk can stop at: after the
	// first admissible candidate through the next-to-last.
	for p := 1; p < len(metAt); p++ {
		if metAt[p] == 0 {
			t.Errorf("no walk met its demand with %d verdicts before its tail (counts %v)", p, metAt)
		}
	}
}

func sameVerdict(v, w CandidateVerdict) bool {
	return v.Center == w.Center && v.Rank == w.Rank && v.Disposition == w.Disposition &&
		sameFloat(v.DistKm, w.DistKm) && sameFloat(v.CPU, w.CPU)
}

// TestNotNeededTailBuiltOnlyWithLog: a matcher without a log never
// builds a ranking's not-needed tail.
func TestNotNeededTailBuiltOnlyWithLog(t *testing.T) {
	m := NewMatcher(datacenter.BuildCenters(datacenter.TableIIISites(), datacenter.Policies()[:2]))
	req := Request{Tag: "z", Origin: geo.London, MaxDistanceKm: math.Inf(1), Demand: datacenter.Vector{0.2}}
	m.AllocateDetailed(nil, req, t0)
	for _, r := range m.rankings {
		if r.tail != nil || r.tailCodes != nil {
			t.Fatal("a walk without a log built the not-needed tail")
		}
	}
	m.SetDecisionLog(NewDecisionLog(1))
	_, _, out := m.AllocateDetailed(nil, req, t0)
	if r := m.rank(geo.London); len(r.tail) != len(m.centers) || len(out.Decision.Candidates) != len(m.centers) {
		t.Fatalf("with a log: tail of %d, decision of %d verdicts, want %d", len(r.tail), len(out.Decision.Candidates), len(m.centers))
	}
}

// TestFitToFreeOversizedDemand: a demand of more bulks than an int
// holds takes every free bulk, like any demand above the free capacity.
func TestFitToFreeOversizedDemand(t *testing.T) {
	c := datacenter.NewCenter("dc", geo.London, 50, datacenter.OptimalPolicy())
	all := fitToFree(c, datacenter.Vector{c.Free()[datacenter.CPU]})
	if all[datacenter.CPU] < 49 {
		t.Fatalf("the free capacity fits %v CPU, want about 50", all[datacenter.CPU])
	}
	for _, cpu := range []float64{1e3, 1e12, 1e100, math.Inf(1)} {
		if got := fitToFree(c, datacenter.Vector{cpu}); got != all {
			t.Errorf("demand %g CPU: fitted %v, want all that is free, %v", cpu, got, all)
		}
	}
	if got := fitToFree(c, datacenter.Vector{math.NaN()}); !got.IsZero() {
		t.Errorf("NaN demand: fitted %v, want nothing", got)
	}
}
