// Package ecosystem implements the paper's request–offer matching
// between game operators and hosters (Section II-C). Game operators
// submit resource requests derived from predicted game load; data
// centers answer with offers shaped by their hosting policies. The
// matching mechanism favors the game operator on three criteria:
//
//  1. the offer must cover at least the requested amounts (requests
//     are rounded up to whole bulks);
//  2. only centers within the game's latency tolerance — expressed as
//     a maximal player-to-server distance — are considered;
//  3. among admissible centers, the finest-grained resources with the
//     shortest reservation time are selected first, which is how game
//     operators "penalize the data centers with unsuitable hosting
//     policies by not using their resources".
package ecosystem

import (
	"math"
	"slices"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
)

// Request asks for resources to serve players at a location.
type Request struct {
	// Tag identifies the requesting workload (e.g. server group).
	Tag string
	// Origin is where the demand's players are.
	Origin geo.Point
	// MaxDistanceKm is the game's latency tolerance as a maximal
	// player-to-server distance; +Inf admits every center.
	MaxDistanceKm float64
	// Demand is the resources needed, in abstract units.
	Demand datacenter.Vector
	// Exclude lists center names the matcher must skip for this
	// request. The failover path uses it so a zone re-acquiring
	// capacity lost to a failed or degraded center does not lease
	// right back from the center that just dropped it.
	Exclude []string
}

// GrantFaults injects hoster-side failures into the matching: before
// each grant attempt the matcher asks the injector whether the center
// rejects the request outright or trims it to a fraction. Injectors
// must be deterministic for a deterministic attempt sequence (see
// faults.Plan, the canonical implementation).
type GrantFaults interface {
	GrantFault(center string) (reject bool, frac float64)
}

// Outcome reports what fault injection did to one AllocateDetailed call.
type Outcome struct {
	// Rejections counts center grants vetoed by the injector.
	Rejections int
	// PartialGrants counts grants the injector trimmed.
	PartialGrants int
	// RejectedBy names the centers whose grants were vetoed, in the
	// matching walk's preference order — the attribution a circuit
	// breaker needs to localize failing domains. The slice aliases
	// matcher scratch and is only valid until the next AllocateDetailed
	// call; callers that retain it must copy.
	RejectedBy []string
	// Decision is the provenance record of this call — every
	// candidate's verdict — when a DecisionLog is installed, nil
	// otherwise. It is the log's own ring slot, valid until the ring
	// wraps onto it; read the log (DecisionLog.Snapshot) rather than
	// retaining the pointer.
	Decision *Decision
}

// Matcher allocates requests across a set of data centers. A Matcher
// is not safe for concurrent use: AllocateDetailed mutates center
// lease books, its ranking cache and its scratch (each simulation run
// owns its matcher exclusively).
type Matcher struct {
	centers []*datacenter.Center
	faults  GrantFaults
	// rankings caches the preference order of every center per request
	// origin (keyed by the origin's bits), at most maxRankings of them.
	// It is derived from the centers' names, locations and policies,
	// which must not change once the matcher is built.
	rankings map[[2]uint64]*ranking
	// rejected is scratch reused by AllocateDetailed so the per-tick
	// acquire walk does not allocate in steady state.
	rejected []string
	// log, when installed, receives one Decision per AllocateDetailed
	// call. nil (the default) keeps the walk provenance-free.
	log *DecisionLog
}

// SetFaultInjector installs (or, with nil, removes) the grant-fault
// injector consulted on every subsequent grant attempt.
func (m *Matcher) SetFaultInjector(f GrantFaults) { m.faults = f }

// SetDecisionLog installs (or, with nil, removes) the decision
// provenance log. Recording is write-only: the matching walk grants
// exactly the same leases with or without a log.
func (m *Matcher) SetDecisionLog(l *DecisionLog) { m.log = l }

// NewMatcher returns a matcher over the centers.
func NewMatcher(centers []*datacenter.Center) *Matcher {
	return &Matcher{centers: centers}
}

// Centers returns the matcher's centers.
func (m *Matcher) Centers() []*datacenter.Center { return m.centers }

// CenterByName finds a center by name, or nil. Checkpoint restore uses
// it to reconnect lease records with the centers that granted them.
func (m *Matcher) CenterByName(name string) *datacenter.Center {
	for _, c := range m.centers {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Expire releases expired leases in all centers and returns the total
// released.
func (m *Matcher) Expire(now time.Time) int {
	n := 0
	for _, c := range m.centers {
		n += c.Expire(now)
	}
	return n
}

// candidate pairs a center and its index in the matcher with its
// distance from the request.
type candidate struct {
	center *datacenter.Center
	index  int
	distKm float64
}

// maxRankings bounds the matcher's ranking cache; a full cache starts
// over. Engines request from a handful of origins (one per region or
// game).
const maxRankings = 128

// ranking is the matching walk for one request origin, before the
// request's exclusions and latency bound filter it.
type ranking struct {
	// order holds every center at a non-NaN distance, sorted by
	// compareCandidates. A NaN distance is never within a latency bound.
	order []candidate
	// distKm holds each center's distance, in center order.
	distKm []float64
	// tail holds, for each position p of order, the verdict a walk
	// whose demand was met before p gives that candidate: not-needed,
	// at rank p+1. tailCodes holds their codes. notNeeded builds both
	// the first time a walk with a DecisionLog uses the ranking.
	tail      []CandidateVerdict
	tailCodes []byte
}

// notNeeded returns the ranking's not-needed verdicts and codes,
// building them on first use.
func (r *ranking) notNeeded() ([]CandidateVerdict, []byte) {
	if r.tail == nil {
		r.tail = make([]CandidateVerdict, len(r.order))
		r.tailCodes = make([]byte, 0, codeBytes*len(r.order))
		for p, cand := range r.order {
			r.tail[p] = CandidateVerdict{Center: cand.center.Name, Rank: p + 1, DistKm: cand.distKm, Disposition: DispNotNeeded}
			r.tailCodes = appendCode(r.tailCodes, cand.index, codeNotNeeded)
		}
	}
	return r.tail, r.tailCodes
}

// rank returns the ranking for origin, computing it on first use.
// compareCandidates is a total order, so filtering the sorted walk
// yields exactly the sort of the filtered centers.
func (m *Matcher) rank(origin geo.Point) *ranking {
	key := [2]uint64{math.Float64bits(origin.LatDeg), math.Float64bits(origin.LonDeg)}
	if r := m.rankings[key]; r != nil {
		return r
	}
	if m.rankings == nil || len(m.rankings) >= maxRankings {
		m.rankings = make(map[[2]uint64]*ranking)
	}
	r := &ranking{order: make([]candidate, 0, len(m.centers)), distKm: make([]float64, len(m.centers))}
	for i, c := range m.centers {
		d := geo.DistanceKm(origin, c.Location)
		r.distKm[i] = d
		if !math.IsNaN(d) {
			r.order = append(r.order, candidate{center: c, index: i, distKm: d})
		}
	}
	slices.SortFunc(r.order, compareCandidates)
	m.rankings[key] = r
	return r
}

// compareCandidates orders candidates by the matching preference:
// finer resource grain, then shorter time bulk, then closer center,
// then name (a unique key, making the order total).
func compareCandidates(a, b candidate) int {
	ga, gb := a.center.Policy.Grain(), b.center.Policy.Grain()
	switch {
	case ga < gb:
		return -1
	case ga > gb:
		return 1
	}
	ta, tb := a.center.Policy.TimeBulk, b.center.Policy.TimeBulk
	switch {
	case ta < tb:
		return -1
	case ta > tb:
		return 1
	}
	switch {
	case a.distKm < b.distKm:
		return -1
	case a.distKm > b.distKm:
		return 1
	}
	switch {
	case a.center.Name < b.center.Name:
		return -1
	case a.center.Name > b.center.Name:
		return 1
	}
	return 0
}

// AllocateDetailed leases resources for the request, splitting it
// across centers when the preferred center cannot host all of it. It
// appends the leases obtained to dst and returns the extended slice
// (so provision.Step grows its lease book in place), the unmet demand
// (zero when fully served), and the fault-injection outcome: callers
// implementing retry/backoff need to distinguish an injected rejection
// (worth retrying later) from genuine capacity exhaustion.
//
// The split follows the matching preference order; each center serves
// as much of the remaining demand as its free capacity allows (in
// whole bulks), and the remainder spills to the next candidate.
func (m *Matcher) AllocateDetailed(dst []*datacenter.Lease, req Request, now time.Time) ([]*datacenter.Lease, datacenter.Vector, Outcome) {
	var out Outcome
	m.rejected = m.rejected[:0]
	remaining := req.Demand.ClampNonNegative()
	if remaining.IsZero() {
		return dst, datacenter.Vector{}, out
	}

	// Provenance: one Decision per non-trivial call. dec stays nil when
	// no log is installed — every recording site below is gated on it
	// and the walk is unchanged.
	r := m.rank(req.Origin)
	var dec *Decision
	if m.log != nil {
		dec = m.log.begin(m, req.Tag)
	}
	// Without an exclusion list or a finite latency bound, every ranked
	// center is admissible.
	filters := len(req.Exclude) > 0 || !math.IsInf(req.MaxDistanceKm, 1)

	// Preference: finer resource grain, then shorter time bulk, then
	// closer center, then name (see compareCandidates).
	leases := dst
	rank := 0
	for p, cand := range r.order {
		if excluded(req.Exclude, cand.center.Name) || !(cand.distKm <= req.MaxDistanceKm) {
			continue
		}
		rank++
		c := cand.center
		verdict := func(code dispCode, cpu float64) {
			dec.add(cand.index, CandidateVerdict{Center: c.Name, Rank: rank, DistKm: cand.distKm, CPU: cpu}, code)
		}
		grant := fitToFree(c, remaining)
		if grant.IsZero() {
			if dec != nil {
				verdict(codeNoCapacity, 0)
			}
			continue
		}
		trimmed := false
		if m.faults != nil {
			// The injector is consulted only for attempts that would
			// actually lease, so the fault stream's consumption is a
			// pure function of the (deterministic) matching walk.
			reject, frac := m.faults.GrantFault(c.Name)
			if reject {
				out.Rejections++
				m.rejected = append(m.rejected, c.Name)
				out.RejectedBy = m.rejected
				if dec != nil {
					verdict(codeRejectedByInjector, 0)
				}
				continue
			}
			if frac < 1 {
				out.PartialGrants++
				trimmed = true
				grant = fitToFree(c, grant.Scale(frac))
				if grant.IsZero() {
					if dec != nil {
						verdict(codePartialTrimmed, 0)
					}
					continue
				}
			}
		}
		l, err := c.Lease(grant, now, req.Tag)
		if err != nil {
			if dec != nil {
				verdict(codeFaulted, 0)
			}
			continue
		}
		if dec != nil {
			code := codeGranted
			if trimmed {
				code = codePartialTrimmed
			}
			verdict(code, l.Alloc[datacenter.CPU])
		}
		leases = append(leases, l)
		remaining = remaining.Sub(l.Alloc).ClampNonNegative()
		if remaining.IsZero() {
			if dec != nil {
				// The walk reaches no later candidate: no fitToFree and
				// no injector draw, so the fault stream and the lease
				// book are untouched.
				dec.addNotNeeded(r, p+1, rank, req, filters)
			}
			break
		}
	}
	if dec != nil {
		// The verdicts of centers the request filters out (rank 0)
		// follow the ranked walk, in center order. Without a filter
		// those are the centers at a NaN distance, if any.
		if filters || len(r.order) < len(m.centers) {
			for i, c := range m.centers {
				code := codeExcludedByFailover
				if !excluded(req.Exclude, c.Name) {
					if r.distKm[i] <= req.MaxDistanceKm {
						continue
					}
					code = codeOutOfLatencyClass
				}
				dec.add(i, CandidateVerdict{Center: c.Name, DistKm: r.distKm[i]}, code)
			}
		}
		dec.UnmetCPU = remaining[datacenter.CPU]
		out.Decision = dec
	}
	return leases, remaining, out
}

// addNotNeeded appends the not-needed verdicts of the candidates from
// position from of r on, which the walk never reached, in one copy
// from the ranking. rank is the last rank the walk gave. A request that
// filters centers drops the ones it filters from the copy, compacting
// it in place, and renumbers the rest from rank+1; without a filter,
// the ranking's own ranks are the walk's.
func (d *Decision) addNotNeeded(r *ranking, from, rank int, req Request, filters bool) {
	tail, codes := r.notNeeded()
	n := len(d.Candidates)
	d.Candidates = append(d.Candidates, tail[from:]...)
	d.codes = append(d.codes, codes[codeBytes*from:]...)
	if !filters {
		return
	}
	k := n
	for i := n; i < len(d.Candidates); i++ {
		v := d.Candidates[i]
		if excluded(req.Exclude, v.Center) || !(v.DistKm <= req.MaxDistanceKm) {
			continue
		}
		rank++
		v.Rank = rank
		d.Candidates[k] = v
		copy(d.codes[codeBytes*k:], d.codes[codeBytes*i:codeBytes*(i+1)])
		k++
	}
	d.Candidates = d.Candidates[:k]
	d.codes = d.codes[:codeBytes*k]
}

// excluded reports whether name is on the request's exclusion list
// (lists are tiny — a linear scan beats a map allocation per call).
func excluded(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// fitToFree trims a demand so its bulk-rounded form fits the center's
// free capacity: per resource, the request is lowered to the largest
// whole-bulk amount not exceeding the free capacity. Unconstrained
// resources are capped at the free amount directly. The CPU component
// leads: if no CPU can be granted at a center but CPU was demanded,
// nothing is taken from it (a game server without CPU is useless).
func fitToFree(c *datacenter.Center, demand datacenter.Vector) datacenter.Vector {
	free := c.Free()
	var out datacenter.Vector
	for i, want := range demand {
		if !(want > 0) { // a NaN component asks for nothing
			continue
		}
		b := c.Policy.Bulk[i]
		avail := free[i]
		if b <= 0 {
			if want <= avail {
				out[i] = want
			} else {
				out[i] = avail
			}
			continue
		}
		// Bulks needed vs bulks available, counted in float64 so that a
		// demand of more bulks than an int holds takes every free bulk.
		needBulks := (want + b - 1e-9) / b
		n := math.Trunc(avail / b)
		if needBulks < n {
			n = math.Trunc(needBulks)
			if n*b < want {
				n++
			}
		}
		out[i] = n * b
	}
	if demand[datacenter.CPU] > 0 && out[datacenter.CPU] <= 0 {
		return datacenter.Vector{}
	}
	return out
}
