package ecosystem

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// refAllocateDetailed is AllocateDetailed without the ranking cache:
// every call measures each center's distance and sorts the admitted
// centers, the reference the cached walk must match. It gives each
// candidate the walk never reached its not-needed verdict one at a
// time, the reference for the copied tail, and records no codes.
func refAllocateDetailed(m *Matcher, dst []*datacenter.Lease, req Request, now time.Time) ([]*datacenter.Lease, datacenter.Vector, Outcome) {
	var out Outcome
	m.rejected = m.rejected[:0]
	remaining := req.Demand.ClampNonNegative()
	if remaining.IsZero() {
		return dst, datacenter.Vector{}, out
	}
	var dec *Decision
	var filtered []CandidateVerdict
	if m.log != nil {
		dec = m.log.begin(nil, req.Tag)
	}
	var cands []candidate
	for _, c := range m.centers {
		if excluded(req.Exclude, c.Name) {
			if dec != nil {
				filtered = append(filtered, CandidateVerdict{
					Center:      c.Name,
					DistKm:      geo.DistanceKm(req.Origin, c.Location),
					Disposition: DispExcludedByFailover,
				})
			}
			continue
		}
		d := geo.DistanceKm(req.Origin, c.Location)
		if d <= req.MaxDistanceKm {
			cands = append(cands, candidate{center: c, distKm: d})
		} else if dec != nil {
			filtered = append(filtered, CandidateVerdict{
				Center:      c.Name,
				DistKm:      d,
				Disposition: DispOutOfLatencyClass,
			})
		}
	}
	slices.SortFunc(cands, compareCandidates)

	leases := dst
	for i, cand := range cands {
		if remaining.IsZero() {
			if dec == nil {
				break
			}
			dec.Candidates = append(dec.Candidates, CandidateVerdict{
				Center: cand.center.Name, Rank: i + 1, DistKm: cand.distKm,
				Disposition: DispNotNeeded,
			})
			continue
		}
		c := cand.center
		verdict := func(disp Disposition, cpu float64) {
			dec.Candidates = append(dec.Candidates, CandidateVerdict{
				Center: c.Name, Rank: i + 1, DistKm: cand.distKm,
				Disposition: disp, CPU: cpu,
			})
		}
		grant := fitToFree(c, remaining)
		if grant.IsZero() {
			if dec != nil {
				verdict(DispNoCapacity, 0)
			}
			continue
		}
		trimmed := false
		if m.faults != nil {
			reject, frac := m.faults.GrantFault(c.Name)
			if reject {
				out.Rejections++
				m.rejected = append(m.rejected, c.Name)
				out.RejectedBy = m.rejected
				if dec != nil {
					verdict(DispRejectedByInjector, 0)
				}
				continue
			}
			if frac < 1 {
				out.PartialGrants++
				trimmed = true
				grant = fitToFree(c, grant.Scale(frac))
				if grant.IsZero() {
					if dec != nil {
						verdict(DispPartialTrimmed, 0)
					}
					continue
				}
			}
		}
		l, err := c.Lease(grant, now, req.Tag)
		if err != nil {
			if dec != nil {
				verdict(DispFaulted, 0)
			}
			continue
		}
		if dec != nil {
			disp := DispGranted
			if trimmed {
				disp = DispPartialTrimmed
			}
			verdict(disp, l.Alloc[datacenter.CPU])
		}
		leases = append(leases, l)
		remaining = remaining.Sub(l.Alloc).ClampNonNegative()
	}
	if dec != nil {
		dec.Candidates = append(dec.Candidates, filtered...)
		dec.UnmetCPU = remaining[datacenter.CPU]
		out.Decision = dec
	}
	return leases, remaining, out
}

// streamFaults rejects or trims grants from its own seeded stream, so
// two matchers walking alike draw alike.
type streamFaults struct{ r *xrand.Rand }

func (f streamFaults) GrantFault(string) (bool, float64) {
	switch u := f.r.Float64(); {
	case u < 0.1:
		return true, 0
	case u < 0.2:
		return false, 0.25 + 0.5*f.r.Float64()
	}
	return false, 1
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRankingMatchesSort runs the cached walk beside the per-call sort
// on two copies of random ecosystems: centers sharing sites and
// policies (so distance and name break ties), some at a NaN site that
// no latency bound admits; random origins including NaN, -0 and +0
// coordinates; random exclusion lists; latency bounds from 0 to +Inf
// and NaN; grant faults drawn from twin streams; with and without a
// DecisionLog. Leases, the unmet vector, the fault outcome and every
// decision's candidates must be equal, and the ranking cache must stay
// within maxRankings while more origins than that come and go.
func TestRankingMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fixed := []geo.Point{
		geo.London, geo.Amsterdam, {LatDeg: geo.London.LatDeg, LonDeg: 120},
		{LatDeg: math.NaN(), LonDeg: 0}, {LatDeg: 10, LonDeg: math.Float64frombits(0x7ff8000000000001)},
		{LatDeg: 0, LonDeg: 0}, {LatDeg: negZero, LonDeg: negZero}, {LatDeg: negZero, LonDeg: 0},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		r := xrand.New(seed)
		sites := []geo.Point{geo.London, geo.Amsterdam, {LatDeg: 40, LonDeg: -74}, {LatDeg: 35, LonDeg: 139}}
		policies := []datacenter.HostingPolicy{
			mkPolicy("fine", 0.25, time.Hour),
			mkPolicy("fine-long", 0.25, 3*time.Hour),
			mkPolicy("coarse", 1, time.Hour),
			{Name: "n/a", TimeBulk: time.Hour},
		}
		n := 3 + r.Intn(14)
		build := func() []*datacenter.Center {
			rr := xrand.New(seed)
			var cs []*datacenter.Center
			for i := 0; i < n; i++ {
				site := sites[rr.Intn(len(sites))]
				switch u := rr.Float64(); {
				case u < 0.3:
					site = geo.Point{LatDeg: rr.Float64()*140 - 70, LonDeg: rr.Float64()*360 - 180}
				case u < 0.4:
					site = geo.Point{LatDeg: math.NaN(), LonDeg: 0}
				}
				cs = append(cs, datacenter.NewCenter("dc"+strconv.Itoa(i), site, 1+rr.Intn(6), policies[rr.Intn(len(policies))]))
			}
			return cs
		}
		ca, cb := build(), build()
		ma, mb := NewMatcher(ca), NewMatcher(cb)
		ma.SetFaultInjector(streamFaults{xrand.New(seed + 100)})
		mb.SetFaultInjector(streamFaults{xrand.New(seed + 100)})
		if seed%3 != 0 {
			ma.SetDecisionLog(NewDecisionLog(4))
			mb.SetDecisionLog(NewDecisionLog(4))
		}
		bounds := []float64{0, 300, 1500, 6000, 20000, math.Inf(1), math.NaN()}

		for op := 0; op < 1500; op++ {
			now := t0.Add(time.Duration(op) * 2 * time.Minute)
			if op%7 == 0 {
				ma.Expire(now)
				mb.Expire(now)
			}
			origin := fixed[r.Intn(len(fixed))]
			if r.Bool(0.3) {
				origin = geo.Point{LatDeg: r.Float64()*180 - 90, LonDeg: r.Float64()*360 - 180}
			}
			maxKm := bounds[r.Intn(len(bounds))]
			if r.Bool(0.2) {
				maxKm = r.Float64() * 12000
			}
			var exclude []string
			for i := 0; i < n; i++ {
				if r.Bool(0.15) {
					exclude = append(exclude, "dc"+strconv.Itoa(i))
				}
			}
			if r.Bool(0.1) {
				exclude = append(exclude, "nowhere")
			}
			req := Request{
				Tag: "z", Origin: origin, MaxDistanceKm: maxKm, Exclude: exclude,
				Demand: datacenter.Vector{float64(r.Intn(5)) * r.Float64() * 2, r.Float64()},
			}
			ga, ua, oa := ma.AllocateDetailed(nil, req, now)
			gb, ub, ob := refAllocateDetailed(mb, nil, req, now)

			if len(ga) != len(gb) {
				t.Fatalf("seed %d op %d: %d leases, sort walk %d", seed, op, len(ga), len(gb))
			}
			for i := range ga {
				x, y := ga[i], gb[i]
				if x.Center.Name != y.Center.Name || x.Alloc != y.Alloc || !x.Expires.Equal(y.Expires) {
					t.Fatalf("seed %d op %d: lease %d is %s %v, sort walk %s %v", seed, op, i, x.Center.Name, x.Alloc, y.Center.Name, y.Alloc)
				}
			}
			for i := range ua {
				if !sameFloat(ua[i], ub[i]) {
					t.Fatalf("seed %d op %d: unmet %v, sort walk %v", seed, op, ua, ub)
				}
			}
			if oa.Rejections != ob.Rejections || oa.PartialGrants != ob.PartialGrants || !slices.Equal(oa.RejectedBy, ob.RejectedBy) {
				t.Fatalf("seed %d op %d: outcome %+v, sort walk %+v", seed, op, oa, ob)
			}
			if (oa.Decision == nil) != (ob.Decision == nil) {
				t.Fatalf("seed %d op %d: decision recorded on one side only", seed, op)
			}
			if d, e := oa.Decision, ob.Decision; d != nil {
				if !sameFloat(d.UnmetCPU, e.UnmetCPU) || len(d.Candidates) != len(e.Candidates) {
					t.Fatalf("seed %d op %d: decision %+v, sort walk %+v", seed, op, d, e)
				}
				for i, v := range d.Candidates {
					w := e.Candidates[i]
					if v.Center != w.Center || v.Rank != w.Rank || v.Disposition != w.Disposition ||
						!sameFloat(v.DistKm, w.DistKm) || !sameFloat(v.CPU, w.CPU) {
						t.Fatalf("seed %d op %d: candidate %d is %+v, sort walk %+v", seed, op, i, v, w)
					}
				}
			}
			if len(ma.rankings) > maxRankings {
				t.Fatalf("seed %d op %d: %d cached rankings, bound %d", seed, op, len(ma.rankings), maxRankings)
			}
		}
	}
}
