// Decision provenance: an optional, bounded record of *why* each
// AllocateDetailed call granted what it granted. When a DecisionLog is
// installed, AllocateDetailed writes one Decision per request — the
// ordered candidate ranking with a typed per-candidate disposition —
// into a reusable ring, so the operator, the daemon's /v1/explain
// endpoint, and mmogaudit's why-chains can all walk an allocation
// back to the candidates that were passed over and the reason each
// was. Like every observability layer in this repo it is write-only
// and free when off: with no log installed the matching walk takes
// the exact same branches and allocates nothing extra.
package ecosystem

// Disposition classifies what the matching walk did with one
// candidate center. The values are untyped string constants, so every
// Decision shares the same interned backing — recording a disposition
// never allocates.
type Disposition string

// The disposition taxonomy. Every candidate a request could have used
// lands on exactly one of these; "unexplained" is deliberately absent
// (an audit that cannot resolve a disposition has found a bug, not a
// category).
const (
	// DispGranted: the center leased the full fitted grant.
	DispGranted Disposition = "granted"
	// DispPartialTrimmed: the injector trimmed the grant (or the trim
	// rounded it to zero) — the center served less than it could have.
	DispPartialTrimmed Disposition = "partial-trimmed"
	// DispNoCapacity: the center's free capacity fits no usable grant
	// (no whole CPU bulk available).
	DispNoCapacity Disposition = "no-capacity"
	// DispExcludedByFailover: the request's Exclude list named the
	// center — a failover refusing to lease back from the center that
	// just dropped the zone.
	DispExcludedByFailover Disposition = "excluded-by-failover"
	// DispOutOfLatencyClass: the center sits beyond the game's
	// latency tolerance (MaxDistanceKm).
	DispOutOfLatencyClass Disposition = "out-of-latency-class"
	// DispFaulted: the center accepted the grant but the lease call
	// itself failed (capacity raced away or the center is down).
	DispFaulted Disposition = "faulted"
	// DispRejectedByInjector: the fault injector vetoed the grant
	// outright.
	DispRejectedByInjector Disposition = "rejected-by-injector"
	// DispCircuitOpen: the daemon's region circuit breaker refused the
	// request before it reached the matcher. Synthesized by the daemon
	// at the admission boundary — the matcher itself never sees these
	// requests.
	DispCircuitOpen Disposition = "circuit-open"
	// DispNotNeeded: the candidate ranked after demand was already
	// met — admissible, but the walk never reached it.
	DispNotNeeded Disposition = "not-needed"
)

// CandidateVerdict is one candidate's fate in one matching walk.
type CandidateVerdict struct {
	// Center is the candidate center's name.
	Center string `json:"center"`
	// Rank is the candidate's 1-based position in the admissible
	// preference order, or 0 for centers filtered out before ranking
	// (excluded-by-failover, out-of-latency-class, circuit-open).
	Rank int `json:"rank"`
	// DistKm is the center's distance from the request origin.
	DistKm float64 `json:"dist_km"`
	// Disposition says what the walk did with the candidate.
	Disposition Disposition `json:"disposition"`
	// CPU is the CPU actually leased from the center (0 unless
	// granted or partial-trimmed).
	CPU float64 `json:"cpu"`
}

// Decision is the provenance record of one AllocateDetailed call: every
// center's verdict, in walk order (ranked candidates first, then the
// filtered ones), plus the residual demand.
type Decision struct {
	// Seq is the decision's position in the log's total order.
	Seq uint64 `json:"seq"`
	// Tick is the provisioning tick the caller stamped (the matcher
	// itself has no clock).
	Tick int `json:"tick"`
	// Tag is the requesting workload (Request.Tag).
	Tag string `json:"tag"`
	// UnmetCPU is the CPU demand left unserved after the walk.
	UnmetCPU float64 `json:"unmet_cpu"`
	// Candidates holds one verdict per considered center.
	Candidates []CandidateVerdict `json:"candidates"`
}

// AppendWalk appends the decision in the compact parseable form
// "center=disposition,center=disposition,..." that flight-recorder
// decision events carry in their Detail field, and returns the
// extended buffer. Into a buffer with room it allocates nothing.
func (d *Decision) AppendWalk(dst []byte) []byte {
	for i := range d.Candidates {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, d.Candidates[i].Center...)
		dst = append(dst, '=')
		dst = append(dst, d.Candidates[i].Disposition...)
	}
	return dst
}

// DecisionLog is a bounded ring of Decisions. Entries are stored by
// value and their candidate slices reused in place, so steady-state
// recording allocates nothing once the ring has warmed up. A
// DecisionLog is not safe for concurrent use — it shares the
// matcher's single-owner discipline.
type DecisionLog struct {
	ring    []Decision
	next    int
	full    bool
	total   uint64
	scratch []CandidateVerdict // filtered-center verdicts, appended after the ranked walk
}

// NewDecisionLog returns a log retaining the last capacity decisions
// (minimum 1).
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity < 1 {
		capacity = 1
	}
	return &DecisionLog{ring: make([]Decision, capacity)}
}

// slot advances the ring and returns the slot to overwrite.
func (l *DecisionLog) slot() *Decision {
	d := &l.ring[l.next]
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	return d
}

// begin opens the next ring slot for a new decision, reusing its
// candidate slice.
func (l *DecisionLog) begin(tag string) *Decision {
	d := l.slot()
	l.total++
	*d = Decision{Seq: l.total, Tag: tag, Candidates: d.Candidates[:0]}
	return d
}

// Synthesize records a decision the matcher never made, such as the
// daemon's refusal of an observation at its region circuit breaker. The
// record takes the next ring slot with Seq 0 and leaves the sequence
// alone, so the matcher's own decisions stay numbered without gaps.
// The candidates are copied into the slot.
func (l *DecisionLog) Synthesize(d Decision) {
	slot := l.slot()
	cands := append(slot.Candidates[:0], d.Candidates...)
	*slot = d
	slot.Seq = 0
	slot.Candidates = cands
}

// Snapshot deep-copies the retained decisions, oldest first.
func (l *DecisionLog) Snapshot() []Decision {
	var src []Decision
	if l.full {
		src = append(src, l.ring[l.next:]...)
		src = append(src, l.ring[:l.next]...)
	} else {
		src = append(src, l.ring[:l.next]...)
	}
	for i := range src {
		src[i].Candidates = append([]CandidateVerdict(nil), src[i].Candidates...)
	}
	return src
}
