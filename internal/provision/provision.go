// Package provision implements the per-requester provisioning step of
// the paper's Section V loop, shared by both engines: the lease book,
// the bounded retry backoff, failover parking under a per-tick
// failover budget, and the matcher call with its bookkeeping; and the
// scorer of Equations (1) and (2), ScoreTick.
//
// A Step is one requester — a server group in core.Run, a whole game in
// the online operator. Each tick the engine calls Prune for the
// standing allocation (and to learn which centers dropped leases),
// scores it with ScoreTick, sizes the gap against AllocAt, and hands it
// to Acquire. Forecasting and brownout stay with the engines.
package provision

import (
	"math"
	"slices"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/obs"
	"mmogdc/internal/xrand"
)

// Backoff policy for injected grant rejections: after the n-th
// consecutive rejected acquisition a step waits 1, 2, 4, then 8 ticks
// before asking again.
const (
	maxRetryExp     = 4
	maxBackoffTicks = 8
)

// Config fixes what a step requests and where it reports.
type Config struct {
	// Matcher is the ecosystem the step leases from.
	Matcher *ecosystem.Matcher
	// Tag, Origin, and MaxDistanceKm fill every request the step sends
	// (see ecosystem.Request).
	Tag           string
	Origin        geo.Point
	MaxDistanceKm float64
	// JitterKey decorrelates this step's parked-failover delays from its
	// siblings' (core.Run uses the zone index).
	JitterKey int
	// Counts accumulates the step's acquisition counters; the steps of
	// one engine may share it. Required.
	Counts *Counts
	// Telemetry receives the acquisition spans, counters, and events;
	// nil records nothing.
	Telemetry *Telemetry
}

// Counts tallies what acquisitions did.
type Counts struct {
	// Failovers counts acquisitions that re-acquired capacity lost to a
	// failed or degraded center; FailoverLeases the leases they won.
	Failovers      int
	FailoverLeases int
	// Deferred counts failovers the tick's failover budget parked.
	Deferred int
	// Retries counts acquisitions sent after a rejection backoff.
	Retries int
	// Rejections and PartialGrants count grants the fault injector
	// vetoed or trimmed.
	Rejections    int
	PartialGrants int
}

// Step is one requester's provisioning state.
type Step struct {
	m      *ecosystem.Matcher
	tag    string
	origin geo.Point
	maxKm  float64
	key    int
	counts *Counts
	tel    *Telemetry

	// leases is the lease book in acquisition order, which fixes the
	// float summation order of the allocation.
	leases []*datacenter.Lease
	// ends holds each book lease's Expires in Unix nanoseconds (see
	// nanos), in book order, so a clean rescan reads no lease's times.
	ends []int64
	// memo is the book's allocation while no lease in it can have
	// ended, so a tick that loses no lease does not rescan the book.
	memo memo
	// lost names the centers whose leases the last Prune found released
	// before their expiry, each once, in lease-book order.
	lost []string
	// retries and retryAt implement the backoff: after retries
	// consecutive rejected acquisitions the step sends nothing before
	// tick retryAt.
	retries, retryAt int
	// parked holds the lost centers of a failover the budget deferred;
	// the step holds its gap until tick dueAt, then fails over.
	parked []string
	dueAt  int
	// rejectSpan is the span of the step's last traced rejection; the
	// next retry's span links to it.
	rejectSpan obs.SpanID
}

// New returns an empty step. Engines hold steps by value (core.Run
// keeps one in each zone's slot of its flat zone array), so New
// returns one; a step must not be copied once in use.
func New(cfg Config) Step {
	s := Step{
		m: cfg.Matcher, tag: cfg.Tag, origin: cfg.Origin, maxKm: cfg.MaxDistanceKm,
		key: cfg.JitterKey, counts: cfg.Counts, tel: cfg.Telemetry,
	}
	s.memo.reset()
	return s
}

// Prune drops the leases no longer active at now and returns the live
// allocation. A lease released before its expiry was taken back by its
// center — an outage, a degradation, or a crash the lease did not
// survive (a restore tombstone) — so Prune notes the center and the
// next Acquire fails the capacity over away from it.
func (s *Step) Prune(now time.Time) datacenter.Vector {
	s.lost = s.lost[:0]
	tn, hit, clean := s.memo.check(now)
	if hit {
		return s.memo.sum
	}
	// A clean rescan drops only leases that ran to their end, so it notes
	// no lost center, and the memo's start and marks still cover the
	// leases it keeps.
	if !clean {
		s.memo.reset()
	}
	var sum scalars
	expires := int64(math.MaxInt64)
	n := 0
	for i, l := range s.leases {
		end := s.ends[i]
		if clean && tn < end || !clean && l.Active(now) {
			sum = sum.add(&l.Alloc)
			expires = min(expires, end)
			if !clean {
				s.memo.mark(l)
			}
			s.leases[n], s.ends[n] = l, end
			n++
			continue
		}
		if !clean && l.Center != nil && now.Before(l.Expires) && !now.Before(l.Start) &&
			!slices.Contains(s.lost, l.Center.Name) {
			s.lost = append(s.lost, l.Center.Name)
		}
	}
	s.leases, s.ends = s.leases[:n], s.ends[:n]
	s.memo.sum, s.memo.expires = sum.vector(), expires
	return s.memo.sum
}

// Expire ends the book's leases that have expired by now at their
// centers, by this step's clock alone: other requesters' leases on the
// same centers wait for their own holders' clocks. The operator, whose
// game keeps its own clock, calls it before Prune; core.Run's zones
// share one clock and expire every center at once with Matcher.Expire.
// Ending a lease moves neither its center's clock nor its early-release
// count, so it drops the memo.
func (s *Step) Expire(now time.Time) {
	if s.memo.holds(now) {
		return
	}
	for _, l := range s.leases {
		if !l.Released() && !now.Before(l.Expires) {
			l.Center.End(l)
			s.memo.stale = true
		}
	}
}

// AllocAt sums the leases still active at t, without pruning. Engines
// size each request against the allocation surviving to the next
// scoring instant, so leases renew before they lapse rather than one
// tick after.
func (s *Step) AllocAt(t time.Time) datacenter.Vector {
	tn, hit, clean := s.memo.check(t)
	if hit {
		return s.memo.sum
	}
	var sum scalars
	for i, l := range s.leases {
		if clean && tn < s.ends[i] || !clean && l.Active(t) {
			sum = sum.add(&l.Alloc)
		}
	}
	return sum.vector()
}

// scalars is a rescan's running sum: Go keeps its four fields in
// registers, where it would keep a datacenter.Vector in memory. add
// adds component by component, as Vector.Add does, so the sum is
// Vector.Add's bit for bit.
type scalars struct{ cpu, mem, in, out float64 }

// The scans sum exactly four resources; this fails to compile if the
// resource count changes.
var _ = [1]struct{}{}[datacenter.NumResources-4]

func (c scalars) add(v *datacenter.Vector) scalars {
	c.cpu += v[datacenter.CPU]
	c.mem += v[datacenter.Memory]
	c.in += v[datacenter.ExtNetIn]
	c.out += v[datacenter.ExtNetOut]
	return c
}

func (c scalars) vector() datacenter.Vector { return datacenter.Vector{c.cpu, c.mem, c.in, c.out} }

// memo is the in-order sum of a whole lease book. It equals the sum of
// the book's leases active at t — the scan's result, bit for bit —
// while no lease in the book can have ended by t, which check tests.
// Times are Unix nanoseconds (see nanos).
type memo struct {
	// stale marks a memo that does not cover the book (SetLeases, or an
	// Expire that ended a lease).
	stale bool
	sum   datacenter.Vector
	// start is the book's latest Start, or later; expires is its
	// earliest Expires.
	start, expires int64
	// marks lists the center of each lease added since the last reset,
	// once, with its EarlyReleases count when it was first marked. A
	// clean Prune keeps the marks of centers the book has left.
	marks []mark
}

type mark struct {
	c     *datacenter.Center
	early uint64
}

// reset empties the memo for a book being rebuilt from scratch.
func (m *memo) reset() {
	*m = memo{start: math.MinInt64, expires: math.MaxInt64, marks: m.marks[:0]}
}

// add extends the memo with the book's next lease, ending at end: one
// Add, exactly the scan's next addition.
func (m *memo) add(l *datacenter.Lease, end int64) {
	m.sum = m.sum.Add(l.Alloc)
	m.expires = min(m.expires, end)
	m.mark(l)
}

// mark raises start to the lease's Start and marks its center.
func (m *memo) mark(l *datacenter.Lease) {
	m.start = max(m.start, nanos(l.Start))
	if l.Center == nil {
		return
	}
	for _, k := range m.marks {
		if k.c == l.Center {
			return
		}
	}
	m.marks = append(m.marks, mark{l.Center, l.Center.EarlyReleases()})
}

// check tests the memo at t, returning t in Unix nanoseconds. It is
// hit when every lease of the book is active at t, so the memo is the
// answer: t lies in [start, expires), no center of the book has
// released a lease early since it was marked, and no such center's
// clock has reached expires (so Expire has released none of the
// book's leases either). It is clean when a lease of the book is
// active at t exactly when tn is before the lease's end: t is at or
// after start, no marked center has released a lease early, and no
// marked center's clock is after t, so every lease a center has let
// expire ended by t. Neither holds for a stale memo or a t outside the
// nanosecond range.
func (m *memo) check(t time.Time) (tn int64, hit, clean bool) {
	tn = nanos(t)
	if m.stale || tn == math.MinInt64 || tn == math.MaxInt64 || tn < m.start {
		return tn, false, false
	}
	clock := int64(math.MinInt64)
	for _, k := range m.marks {
		if k.c.EarlyReleases() != k.early {
			return tn, false, false
		}
		clock = max(clock, nanos(k.c.Clock()))
	}
	return tn, tn < m.expires && clock < m.expires, clock <= tn
}

// holds reports whether check(t) is a hit.
func (m *memo) holds(t time.Time) bool {
	_, hit, _ := m.check(t)
	return hit
}

// maxSec is the largest whole second whose every instant int64 Unix
// nanoseconds hold.
const maxSec = math.MaxInt64/1_000_000_000 - 1

// nanos returns t in Unix nanoseconds when t is within maxSec seconds
// of the epoch, and otherwise the nearer end of the int64 range, which
// no time within maxSec seconds maps to. A strict order between two
// results, and any order between a result and one inside the range, is
// the order of the times.
func nanos(t time.Time) int64 {
	switch sec := t.Unix(); {
	case sec > maxSec:
		return math.MaxInt64
	case sec < -maxSec:
		return math.MinInt64
	default:
		return sec*1_000_000_000 + int64(t.Nanosecond())
	}
}

// Leases returns the lease book in acquisition order. The slice
// aliases the step's storage.
func (s *Step) Leases() []*datacenter.Lease { return s.leases }

// SetLeases replaces the lease book (checkpoint restore).
func (s *Step) SetLeases(leases []*datacenter.Lease) {
	s.leases = leases
	s.ends = s.ends[:0]
	for _, l := range leases {
		s.ends = append(s.ends, nanos(l.Expires))
	}
	s.memo.stale = true
}

// Release hands every live lease back to its center, empties the book,
// and forgets any parked failover — the capacity is given up by choice,
// so there is nothing left to fail over. It returns the number of
// leases released.
func (s *Step) Release() int {
	n := 0
	for _, l := range s.leases {
		if !l.Released() && l.Center.Release(l) {
			n++
		}
	}
	s.leases, s.ends = s.leases[:0], s.ends[:0]
	s.memo.reset()
	s.parked = s.parked[:0]
	return n
}

// Attempt is what one Acquire did.
type Attempt struct {
	// Leases are the leases won: the lease book's newest entries, valid
	// until the step's next Prune, Acquire, Release or SetLeases.
	Leases []*datacenter.Lease
	// Outcome is the matcher's fault-injection outcome and decision
	// record; zero when no request was sent.
	Outcome ecosystem.Outcome
	// Failover reports that the request re-acquired capacity lost to
	// failed centers, excluding them.
	Failover bool
	// Unmet reports demand left unserved this tick: short after the
	// request, or withheld by a backoff, a parked failover, or its hold.
	Unmet bool
}

// Acquire leases toward need at tick t (time now). The rules, in order:
//
//  1. A parked failover holds the gap until its due tick, and a loss
//     seen meanwhile joins the park. When due, the parked centers join
//     this tick's losses.
//  2. Without losses, a step backing off from rejections sends nothing.
//  3. Zero need sends nothing.
//  4. A failover the tick's budget does not admit (admitFailover false)
//     parks for 1–4 ticks, jittered per step and tick.
//  5. Otherwise one request goes to the matcher, excluding the lost
//     centers. A rejection that left demand unmet backs off 1, 2, 4,
//     then 8 ticks; any other outcome resets the backoff.
func (s *Step) Acquire(t int, now time.Time, need datacenter.Vector, admitFailover bool) Attempt {
	unmet := !need.IsZero()
	if len(s.parked) > 0 {
		if t < s.dueAt {
			s.parked = appendNew(s.parked, s.lost)
			return Attempt{Unmet: unmet}
		}
		s.lost = appendNew(s.lost, s.parked)
		s.parked = s.parked[:0]
	}
	lost := s.lost
	if len(lost) == 0 && t < s.retryAt {
		return Attempt{Unmet: unmet}
	}
	if !unmet {
		return Attempt{}
	}
	if len(lost) > 0 && !admitFailover {
		s.parked = append(s.parked, lost...)
		s.dueAt = t + 1 + jitter(s.key, t)
		s.counts.Deferred++
		s.tel.deferred(t, s.tag, s.dueAt)
		return Attempt{Unmet: true}
	}

	retry := s.retries > 0
	sp := s.tel.beginAcquire(t, s.tag, lost, retry, s.rejectSpan)
	if retry {
		s.counts.Retries++
		s.tel.retried(t, s.tag, sp)
	}
	n := len(s.leases)
	book, short, out := s.m.AllocateDetailed(s.leases, ecosystem.Request{
		Tag: s.tag, Origin: s.origin, MaxDistanceKm: s.maxKm, Demand: need, Exclude: lost,
	}, now)
	if out.Decision != nil {
		out.Decision.Tick = t
	}
	s.leases = book
	leases := book[n:]
	for _, l := range leases {
		end := nanos(l.Expires)
		s.ends = append(s.ends, end)
		s.memo.add(l, end)
	}
	s.counts.Rejections += out.Rejections
	s.counts.PartialGrants += out.PartialGrants
	failover := len(lost) > 0
	if failover {
		s.counts.Failovers++
		s.counts.FailoverLeases += len(leases)
	}
	if out.Rejections > 0 && sp.ID() != 0 {
		s.rejectSpan = sp.ID()
	}
	s.tel.acquired(t, s.tag, leases, out, lost, sp)
	if out.Rejections > 0 && !short.IsZero() {
		s.backOff(t)
	} else {
		s.retries = 0
	}
	return Attempt{Leases: leases, Outcome: out, Failover: failover, Unmet: !short.IsZero()}
}

// backOff schedules the next attempt after a rejection at tick t.
func (s *Step) backOff(t int) {
	if s.retries < maxRetryExp {
		s.retries++
	}
	s.retryAt = t + min(1<<(s.retries-1), maxBackoffTicks)
}

// jitter spreads parked failovers over 0–3 extra ticks with a
// stateless hash of (key, tick): deterministic for any worker count and
// across checkpoint resume, and different per step and per deferral so
// a blackout's victims do not re-stampede in lockstep.
func jitter(key, t int) int {
	h := uint64(key)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9 ^ 0x5707bac0ff
	return int(xrand.Mix64(h) & 3)
}

// appendNew appends the names of src missing from dst.
func appendNew(dst, src []string) []string {
	for _, name := range src {
		if !slices.Contains(dst, name) {
			dst = append(dst, name)
		}
	}
	return dst
}

// State writes or reads the step's backoff and parked-failover state,
// refusing values no step reaches: a backoff exponent outside 0..4, or
// more parked centers than the matcher has. The lease book is the
// engine's to persist: core.Run rebuilds the centers' books, the
// operator reconciles with the live ecosystem.
func (s *Step) State(c *checkpoint.Codec) {
	c.Int(&s.retries)
	c.Int(&s.retryAt)
	c.Int(&s.dueAt)
	n := len(s.parked)
	c.Int(&n)
	if s.retries < 0 || s.retries > maxRetryExp {
		c.Failf("%s backs off with exponent %d", s.tag, s.retries)
	}
	if n < 0 || n > len(s.m.Centers()) {
		c.Failf("%s parks %d failovers", s.tag, n)
	}
	if c.Err() != nil {
		return
	}
	if c.Reading() {
		s.parked = slices.Grow(s.parked[:0], n)[:n]
	}
	for i := range s.parked {
		c.Str(&s.parked[i])
	}
}

// SignificantUnderPct is the |Υ| threshold (in percent) above which an
// under-allocation is disruptive (Section V).
const SignificantUnderPct = 1.0

// Machines is M in Equation 2: ⌈allocCPU⌉ machines of one CPU unit, ≥ 1.
func Machines(allocCPU float64) float64 { return max(math.Ceil(allocCPU), 1) }

// Score is one tick by Equations (1) and (2), per resource: Over is Ω−100
// in percent where Loaded marks a load (Ω is undefined elsewhere), Under
// is Υ in percent, Worst the lowest Υ or 0, and Event any Υ below −1%.
type Score struct {
	Over, Under datacenter.Vector
	Loaded      [datacenter.NumResources]bool
	Worst       float64
	Event       bool
}

// ScoreTick scores summed α and λ and the sum of each requester's own
// min(α−λ, 0), so no requester's surplus covers another's deficit.
func ScoreTick(alloc, load, shortfall datacenter.Vector) (s Score) {
	m := Machines(alloc[datacenter.CPU])
	for r, short := range shortfall {
		if load[r] > 0 {
			s.Over[r], s.Loaded[r] = (alloc[r]/load[r]-1)*100, true
		}
		s.Under[r] = short / m * 100
		s.Event = s.Event || s.Under[r] < -SignificantUnderPct
		if s.Under[r] < s.Worst {
			s.Worst = s.Under[r]
		}
	}
	return s
}
