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

import "encoding/binary"

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

// dispCode numbers the dispositions the matcher records, for the
// codes of a Decision's walk. circuit-open has none: the matcher never
// records it.
type dispCode uint8

const (
	codeGranted dispCode = iota
	codePartialTrimmed
	codeNoCapacity
	codeExcludedByFailover
	codeOutOfLatencyClass
	codeFaulted
	codeRejectedByInjector
	codeNotNeeded
)

// dispositions maps each code to its disposition.
var dispositions = [...]Disposition{
	codeGranted:            DispGranted,
	codePartialTrimmed:     DispPartialTrimmed,
	codeNoCapacity:         DispNoCapacity,
	codeExcludedByFailover: DispExcludedByFailover,
	codeOutOfLatencyClass:  DispOutOfLatencyClass,
	codeFaulted:            DispFaulted,
	codeRejectedByInjector: DispRejectedByInjector,
	codeNotNeeded:          DispNotNeeded,
}

// codeBytes is the width of one verdict's code: the center's index in
// the matcher shifted left by four bits, or'ed with its dispCode, as a
// little-endian uint32.
const codeBytes = 4

// appendCode appends the code of a verdict on the matcher's center i.
func appendCode(codes []byte, i int, code dispCode) []byte {
	return binary.LittleEndian.AppendUint32(codes, uint32(i)<<4|uint32(code))
}

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

	// by is the matcher that made the decision, and codes holds one
	// code per verdict (see appendCode), in Candidates order. Both are
	// empty on a decision the matcher did not make.
	by    *Matcher
	codes []byte
}

// add appends v, the verdict on the matcher's center i, with the
// disposition code names, and appends the verdict's code.
func (d *Decision) add(i int, v CandidateVerdict, code dispCode) {
	v.Disposition = dispositions[code]
	d.Candidates = append(d.Candidates, v)
	d.codes = appendCode(d.codes, i, code)
}

// Coded returns the matcher that made the decision and the decision's
// walk as codes: per verdict, the center's index in that matcher and
// its disposition. Equal codes from one matcher render equal walks, so
// a caller can intern what AppendWalk renders by the codes and render
// each walk once. A decision the matcher did not make (Synthesize's, a
// Snapshot copy, one built by hand) returns nil, nil. The codes are the
// log slot's own, valid until the ring wraps onto it.
func (d *Decision) Coded() (*Matcher, []byte) {
	if d.by == nil {
		return nil, nil
	}
	return d.by, d.codes
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
	ring  []Decision
	next  int
	full  bool
	total uint64
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

// begin opens the next ring slot for a new decision of m, reusing its
// candidate and code slices.
func (l *DecisionLog) begin(m *Matcher, tag string) *Decision {
	d := l.slot()
	l.total++
	*d = Decision{Seq: l.total, Tag: tag, Candidates: d.Candidates[:0], by: m, codes: d.codes[:0]}
	return d
}

// Synthesize records a decision the matcher never made, such as the
// daemon's refusal of an observation at its region circuit breaker. The
// record takes the next ring slot with Seq 0 and leaves the sequence
// alone, so the matcher's own decisions stay numbered without gaps.
// The candidates are copied into the slot; the record carries no codes,
// even when d is a copy of a matcher's decision.
func (l *DecisionLog) Synthesize(d Decision) {
	slot := l.slot()
	cands := append(slot.Candidates[:0], d.Candidates...)
	codes := slot.codes[:0]
	*slot = d
	slot.Seq = 0
	slot.Candidates = cands
	slot.by, slot.codes = nil, codes
}

// Snapshot deep-copies the retained decisions, oldest first. The
// copies carry no codes: the slots' codes are overwritten as the ring
// wraps.
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
		src[i].by, src[i].codes = nil, nil
	}
	return src
}
