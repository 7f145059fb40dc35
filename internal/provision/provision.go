// Package provision implements the per-requester provisioning step of
// the paper's Section V loop, shared by both engines: the lease book,
// the bounded retry backoff, failover parking under a per-tick
// failover budget, and the matcher call with its bookkeeping.
//
// A Step is one requester — a server group in core.Run, a whole game in
// the online operator. Each tick the engine calls Prune to score the
// standing allocation (and learn which centers dropped leases), sizes
// the gap against AllocAt, and hands it to Acquire. Forecasting,
// scoring, and brownout stay with the engines.
package provision

import (
	"fmt"
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
	return Step{
		m: cfg.Matcher, tag: cfg.Tag, origin: cfg.Origin, maxKm: cfg.MaxDistanceKm,
		key: cfg.JitterKey, counts: cfg.Counts, tel: cfg.Telemetry,
	}
}

// Prune drops the leases no longer active at now and returns the live
// allocation. A lease released before its expiry was taken back by its
// center — an outage, a degradation, or a crash the lease did not
// survive (a restore tombstone) — so Prune notes the center and the
// next Acquire fails the capacity over away from it.
func (s *Step) Prune(now time.Time) datacenter.Vector {
	s.lost = s.lost[:0]
	if s.memo.holds(now) {
		return s.memo.sum
	}
	s.memo.reset()
	live := s.leases[:0]
	for _, l := range s.leases {
		if l.Active(now) {
			s.memo.add(l)
			live = append(live, l)
			continue
		}
		if l.Center != nil && now.Before(l.Expires) && !now.Before(l.Start) &&
			!slices.Contains(s.lost, l.Center.Name) {
			s.lost = append(s.lost, l.Center.Name)
		}
	}
	s.leases = live
	return s.memo.sum
}

// Expire ends the book's leases that have expired by now at their
// centers, by this step's clock alone: other requesters' leases on the
// same centers wait for their own holders' clocks. The operator, whose
// game keeps its own clock, calls it before Prune; core.Run's zones
// share one clock and expire every center at once with Matcher.Expire.
func (s *Step) Expire(now time.Time) {
	if s.memo.holds(now) {
		return
	}
	for _, l := range s.leases {
		if !l.Released() && !now.Before(l.Expires) {
			l.Center.End(l)
		}
	}
}

// AllocAt sums the leases still active at t, without pruning. Engines
// size each request against the allocation surviving to the next
// scoring instant, so leases renew before they lapse rather than one
// tick after.
func (s *Step) AllocAt(t time.Time) datacenter.Vector {
	if s.memo.holds(t) {
		return s.memo.sum
	}
	var sum datacenter.Vector
	for _, l := range s.leases {
		if l.Active(t) {
			sum = sum.Add(l.Alloc)
		}
	}
	return sum
}

// memo is the in-order sum of a whole lease book. It equals the sum of
// the book's leases active at t — the scan's result, bit for bit —
// while no lease in the book can have ended by t, which holds checks.
type memo struct {
	// stale marks a memo that does not cover the book (SetLeases).
	stale bool
	n     int
	sum   datacenter.Vector
	// start is the book's latest Start, expires its earliest Expires.
	start, expires time.Time
	// marks lists each center of the book with its EarlyReleases count
	// when the lease that brought it in was added.
	marks []mark
}

type mark struct {
	c     *datacenter.Center
	early uint64
}

// reset empties the memo for a book being rebuilt from scratch.
func (m *memo) reset() {
	*m = memo{marks: m.marks[:0]}
}

// add extends the memo with the book's next lease: one Add, exactly
// the scan's next addition.
func (m *memo) add(l *datacenter.Lease) {
	m.sum = m.sum.Add(l.Alloc)
	if m.n == 0 || l.Start.After(m.start) {
		m.start = l.Start
	}
	if m.n == 0 || l.Expires.Before(m.expires) {
		m.expires = l.Expires
	}
	m.n++
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

// holds reports whether every lease of the book is active at t: t lies
// in [start, expires), no center of the book has released a lease
// early since it was marked, and no such center's clock has reached
// expires (so Expire has released none of the book's leases either).
func (m *memo) holds(t time.Time) bool {
	if m.stale || m.n > 0 && (t.Before(m.start) || !t.Before(m.expires)) {
		return false
	}
	for _, k := range m.marks {
		if k.c.EarlyReleases() != k.early || !k.c.Clock().Before(m.expires) {
			return false
		}
	}
	return true
}

// Leases returns the lease book in acquisition order. The slice
// aliases the step's storage.
func (s *Step) Leases() []*datacenter.Lease { return s.leases }

// SetLeases replaces the lease book (checkpoint restore).
func (s *Step) SetLeases(leases []*datacenter.Lease) {
	s.leases = leases
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
	s.leases = s.leases[:0]
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
		s.memo.add(l)
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

// Encode writes the step's backoff and parked-failover state. The lease
// book is the engine's to persist: core.Run rebuilds the centers' books,
// the operator reconciles with the live ecosystem.
func (s *Step) Encode(e *checkpoint.Enc) {
	e.Int(s.retries)
	e.Int(s.retryAt)
	e.Int(s.dueAt)
	e.Int(len(s.parked))
	for _, name := range s.parked {
		e.Str(name)
	}
}

// Decode restores state written by Encode, rejecting values no step can
// reach: a backoff exponent outside 0..4, or more parked centers than
// the matcher has.
func (s *Step) Decode(d *checkpoint.Dec) error {
	s.retries = d.Int()
	s.retryAt = d.Int()
	s.dueAt = d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if s.retries < 0 || s.retries > maxRetryExp {
		return fmt.Errorf("%s backs off with exponent %d", s.tag, s.retries)
	}
	if n < 0 || n > len(s.m.Centers()) {
		return fmt.Errorf("%s parks %d failovers", s.tag, n)
	}
	s.parked = s.parked[:0]
	for i := 0; i < n; i++ {
		s.parked = append(s.parked, d.Str())
	}
	return d.Err()
}
