package provision

import (
	"slices"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/obs"
)

// Telemetry publishes acquisitions into an engine's instruments. Each
// engine registers the counters under its own metric families (a nil
// counter is a no-op) and supplies the Spans hook. Strictly write-only:
// nothing a step decides depends on it, and a nil *Telemetry records
// nothing and allocates nothing. The steps sharing one Telemetry must
// acquire sequentially.
type Telemetry struct {
	Recorder *obs.Recorder
	// Spans opens the acquisition spans (required).
	Spans Spans

	Grants         *obs.Counter // acquisitions that won at least one lease
	GrantLeases    *obs.Counter // leases won across all grants
	Failovers      *obs.Counter
	FailoverLeases *obs.Counter
	Retries        *obs.Counter
	Rejections     *obs.Counter
	PartialGrants  *obs.Counter
	Deferred       *obs.Counter // failovers parked by the budget

	// Event-detail interning: grant, failover and decision details are
	// built from center names and dispositions, so a run repeats a few
	// hundred of them. Each is rendered into buf and looked up in
	// details, so steady-state telemetry allocates nothing per event.
	// A decision the matcher made is looked up by its codes instead, in
	// walks, which holds the walks of the matcher walksOf only: a walk
	// is rendered the first time its codes are seen, not on every event.
	centersBuf []string
	buf        []byte
	details    map[string]string
	walksOf    *ecosystem.Matcher
	walks      map[string]string
}

// maxDetails bounds each intern table; a full table starts over.
const maxDetails = 4096

// Spans opens the trace span of each acquisition. Engines implement it:
// span names, parents, and causal links are theirs. The step stamps the
// span's ID on the acquisition's events and ends it after them.
type Spans interface {
	// BeginAcquire opens the span of one matcher call by tag at tick t
	// (nil when tracing is off). lost is non-empty for a failover; retry
	// marks a call after a rejection backoff, and rejected is the span
	// of the step's last traced rejection (0 when there is none).
	BeginAcquire(t int, tag string, lost []string, retry bool, rejected obs.SpanID) *obs.Span
	// Enclosing returns the span a parked failover's event carries.
	Enclosing() obs.SpanID
}

func (tel *Telemetry) beginAcquire(t int, tag string, lost []string, retry bool, rejected obs.SpanID) *obs.Span {
	if tel == nil {
		return nil
	}
	return tel.Spans.BeginAcquire(t, tag, lost, retry, rejected)
}

// deferred records the budget parking tag's failover until tick due.
func (tel *Telemetry) deferred(t int, tag string, due int) {
	if tel == nil {
		return
	}
	tel.Deferred.Inc()
	tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventDeferred, Subject: tag, Value: float64(due), Span: tel.Spans.Enclosing()})
}

// retried records one acquisition sent after a rejection backoff.
func (tel *Telemetry) retried(t int, tag string, sp *obs.Span) {
	if tel == nil {
		return
	}
	tel.Retries.Inc()
	tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventRetry, Subject: tag, Span: sp.ID()})
}

// acquired records the outcome of one matcher call — grants, injected
// rejections and trims, the failover case, and the decision record —
// and ends the call's span.
func (tel *Telemetry) acquired(t int, tag string, leases []*datacenter.Lease, out ecosystem.Outcome, lost []string, sp *obs.Span) {
	if tel == nil {
		return
	}
	span := sp.ID()
	tel.Rejections.Add(int64(out.Rejections))
	tel.PartialGrants.Add(int64(out.PartialGrants))
	if out.Rejections > 0 {
		tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventRejection, Subject: tag, Value: float64(out.Rejections), Span: span})
	}
	if len(leases) > 0 {
		tel.Grants.Inc()
		tel.GrantLeases.Add(int64(len(leases)))
		cpu := 0.0
		centers := tel.centersBuf[:0]
		for _, l := range leases {
			cpu += l.Alloc[datacenter.CPU]
			if !slices.Contains(centers, l.Center.Name) {
				centers = append(centers, l.Center.Name)
			}
		}
		tel.centersBuf = centers
		tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventGrant, Subject: tag,
			Detail: tel.joined("centers: ", centers), Value: cpu, Span: span})
	}
	if len(lost) > 0 {
		tel.Failovers.Inc()
		tel.FailoverLeases.Add(int64(len(leases)))
		tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventFailover, Subject: tag,
			Detail: tel.joined("lost: ", lost), Value: float64(len(leases)), Span: span})
	}
	if out.Decision != nil {
		// The decision event shares the acquire span with the events
		// above — that span is the join key from outcome to ranking.
		tel.Recorder.Record(obs.Event{Tick: t, Kind: obs.EventDecision, Subject: tag,
			Detail: tel.walk(out.Decision), Value: float64(out.Decision.Seq), Span: span})
	}
	sp.SetValue(float64(len(leases)))
	sp.End()
}

// walk returns the walk d.AppendWalk renders, interned by d's codes
// when the matcher made d, and by its bytes otherwise.
func (tel *Telemetry) walk(d *ecosystem.Decision) string {
	m, codes := d.Coded()
	if m == nil {
		tel.buf = d.AppendWalk(tel.buf[:0])
		return tel.intern()
	}
	if m == tel.walksOf {
		if w, ok := tel.walks[string(codes)]; ok {
			return w
		}
	}
	if m != tel.walksOf || len(tel.walks) >= maxDetails {
		tel.walksOf, tel.walks = m, make(map[string]string)
	}
	// One string holds the codes and the walk after them, so that a new
	// walk costs one allocation, as an interned detail does.
	tel.buf = d.AppendWalk(append(tel.buf[:0], codes...))
	kw := string(tel.buf)
	tel.walks[kw[:len(codes)]] = kw[len(codes):]
	return kw[len(codes):]
}

// joined interns prefix + the comma-joined names.
func (tel *Telemetry) joined(prefix string, names []string) string {
	tel.buf = append(tel.buf[:0], prefix...)
	for i, name := range names {
		if i > 0 {
			tel.buf = append(tel.buf, ',')
		}
		tel.buf = append(tel.buf, name...)
	}
	return tel.intern()
}

// intern returns the detail rendered in buf as a string, allocating it
// only the first time these bytes are seen.
func (tel *Telemetry) intern() string {
	if d, ok := tel.details[string(tel.buf)]; ok {
		return d
	}
	if tel.details == nil || len(tel.details) >= maxDetails {
		tel.details = make(map[string]string)
	}
	d := string(tel.buf)
	tel.details[d] = d
	return d
}
