package audit

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"mmogdc/internal/ecosystem"
	"mmogdc/internal/obs"
)

// causeLookbackTicks is how far before an SLA-breach episode the
// classifier looks for a plausible trigger — the engine's maximum
// rejection backoff, so a breach caused by a backed-off zone still
// sees its rejection.
const causeLookbackTicks = 8

// Episode is one maximal run of consecutive SLA-breach ticks
// (sla_breach events), with the root cause the classifier assigned.
type Episode struct {
	StartTick int
	EndTick   int
	Ticks     int
	// WorstUnderPct is the deepest under-allocation Υ inside the
	// episode (<= 0).
	WorstUnderPct float64
	// Cause is the classifier's root-cause attribution, in order of
	// precedence: "region blackout", "brownout shedding", "outage",
	// "rejection backoff", "failover storm control", "prediction miss"
	// (the provisioner was granting but its forecast undershot), or
	// "unclassified" (no signal in the stream explains the breach).
	Cause string
}

// DomainWindow is one failure-domain impairment window reconstructed
// from the event stream: a whole-region blackout or a brownout
// engagement. EndTick is math.MaxInt when the window never closed
// within the run.
type DomainWindow struct {
	// Subject is the region (blackouts) or the engine/game that
	// engaged brownout mode.
	Subject   string
	StartTick int
	EndTick   int
}

// KindCount is one event kind's census entry.
type KindCount struct {
	Kind  string
	Count int
}

// LatencyDist summarizes one span family's durations (microseconds).
type LatencyDist struct {
	Count  int
	MinUS  float64
	MeanUS float64
	MaxUS  float64
}

func (d *LatencyDist) observe(us float64) {
	if d.Count == 0 || us < d.MinUS {
		d.MinUS = us
	}
	if us > d.MaxUS {
		d.MaxUS = us
	}
	d.MeanUS += us // sum until finalized
	d.Count++
}

func (d *LatencyDist) finalize() {
	if d.Count > 0 {
		d.MeanUS /= float64(d.Count)
	}
}

// CenterAttribution is one data center's share of the run's grants.
type CenterAttribution struct {
	Name string
	// Grants counts grant events that included the center.
	Grants int
	// CPUUnits is the granted CPU attributed to the center (a grant
	// spanning k centers contributes value/k to each).
	CPUUnits float64
	// AvailabilityPct is the center's mean available capacity over the
	// run (from the metrics document), or NaN when unknown.
	AvailabilityPct float64
}

// PhaseStat is one span family's timing breakdown from the trace.
type PhaseStat struct {
	Name    string
	Spans   int
	TotalUS float64
	MeanUS  float64
}

// AlertQuality scores the SLO engine's slo_alert firings against the
// ground truth the audit already reconstructs: the SLA-breach episodes.
// A firing at tick t matches an episode covering [Start, End +
// causeLookbackTicks] — the same tolerance the root-cause classifier
// uses, since an alert confirmed one burn window after the breach ends
// is still attributing the same incident.
type AlertQuality struct {
	// Fired counts firing transitions; TruePositives the ones matching
	// some episode (the rest are false alarms).
	Fired         int
	TruePositives int
	// Episodes is the ground-truth episode count; Detected how many had
	// at least one matching firing.
	Episodes int
	Detected int
	// MeanLagTicks / MaxLagTicks measure detection latency: each
	// detected episode's first matching firing tick minus its start.
	MeanLagTicks float64
	MaxLagTicks  int
}

// Precision is TruePositives/Fired (1 when nothing fired — no false
// alarms).
func (a *AlertQuality) Precision() float64 {
	if a.Fired == 0 {
		return 1
	}
	return float64(a.TruePositives) / float64(a.Fired)
}

// Recall is Detected/Episodes (1 when there was nothing to detect).
func (a *AlertQuality) Recall() float64 {
	if a.Episodes == 0 {
		return 1
	}
	return float64(a.Detected) / float64(a.Episodes)
}

// WhyChain walks one SLA-breach episode back through its decision
// chain: every acquisition site (grant/failover/retry event) inside the
// episode's cause window, resolved to the decision record emitted at
// the same (tick, subject), and the per-candidate dispositions those
// decisions carry. An acquisition with no decision record is
// Unexplained — with provenance enabled end to end that count is zero.
type WhyChain struct {
	// Episode is the 1-based index into Report.Episodes.
	Episode int
	// Acquisitions counts distinct (tick, subject) acquisition sites in
	// [StartTick-causeLookbackTicks, EndTick]; Resolved of those had a
	// decision record, Unexplained did not.
	Acquisitions int
	Resolved     int
	Unexplained  int
	// Dispositions aggregates the per-candidate dispositions across the
	// resolved decisions, sorted by disposition name.
	Dispositions []KindCount
}

// Check is one consistency assertion between the artifacts.
type Check struct {
	Name string
	Want string
	Got  string
	OK   bool
}

// Report is the assembled audit.
type Report struct {
	// From the event stream.
	EventTotal  int
	KindTotals  []KindCount
	Episodes    []Episode
	BreachTicks int
	Centers     []CenterAttribution

	// Failure-domain activity from the event stream. All empty/zero on
	// runs without correlated faults, brownout, or storm control — the
	// Render section and the consistency checks they feed are gated on
	// that, so fault-free reports are unchanged.
	Blackouts         []DomainWindow
	Brownouts         []DomainWindow
	ShedEvents        int
	ShedPlayerTicks   float64
	DeferredFailovers int
	// Unclassified counts episodes whose root cause no signal in the
	// stream explains (cmd/mmogaudit can be told to fail on them).
	Unclassified int

	// Decision provenance. HasDecisions is set when the stream carries
	// decision events at all — the Why section and its consistency
	// checks are gated on it, so provenance-free reports are
	// byte-identical to pre-provenance ones. UnexplainedChains sums
	// WhyChain.Unexplained (cmd/mmogaudit can be told to fail on it).
	HasDecisions      bool
	WhyChains         []WhyChain
	UnexplainedChains int

	// From the metrics document (nil-safe: zero when absent).
	HasMetrics bool
	Ticks      int
	Events     int
	Unmet      int
	Recorder   RecorderStats

	// From the trace (empty when absent).
	HasTrace        bool
	FailoverLatency LatencyDist
	RetryLatency    LatencyDist
	Phases          []PhaseStat

	// From a cmd/mmogload report (nil when absent; see AttachLoad).
	Load *LoadReport

	// Alerts scores SLO firings against the breach episodes; nil when
	// the stream has no slo_alert events (engine not armed), so
	// alert-free reports render unchanged.
	Alerts *AlertQuality

	// RequestPath is the cross-process critical path; nil unless
	// AttachRequestPath merged a client and a server trace.
	RequestPath *RequestPathReport

	Checks []Check
}

// Analyze builds the audit from a run's artifacts. events is required;
// md and tr are optional (their sections are omitted when nil).
func Analyze(events []obs.Event, md *MetricsDoc, tr *obs.Trace) *Report {
	rp := &Report{EventTotal: len(events)}
	rp.censusFrom(events)
	rp.episodesFrom(events)
	rp.whyFrom(events)
	rp.alertsFrom(events)
	rp.centersFrom(events, md)
	if md != nil {
		rp.HasMetrics = true
		rp.Ticks = md.Ticks
		rp.Events = md.Events
		rp.Unmet = md.Unmet
		rp.Recorder = md.Recorder
		rp.Checks = append(rp.Checks,
			check("breach ticks match Result.Events",
				fmt.Sprint(md.Events), fmt.Sprint(rp.BreachTicks)),
			check("event stream length matches Recorder.Total",
				fmt.Sprint(md.Recorder.Total), fmt.Sprint(len(events))))
		// Failure-domain cross-checks, gated on the machinery having
		// fired at all so fault-free reports are byte-identical.
		blackoutEvents := rp.kindCount(obs.EventRegionBlackout)
		rb, deferredRes := 0, 0
		if md.Resilience != nil {
			rb = md.Resilience.RegionBlackouts
			deferredRes = md.Resilience.FailoversDeferred
		}
		if blackoutEvents > 0 || rb > 0 {
			rp.Checks = append(rp.Checks,
				check("region blackout events match Resilience.RegionBlackouts",
					fmt.Sprint(rb), fmt.Sprint(blackoutEvents)))
		}
		if rp.DeferredFailovers > 0 || deferredRes > 0 {
			rp.Checks = append(rp.Checks,
				check("deferral events match Resilience.FailoversDeferred",
					fmt.Sprint(deferredRes), fmt.Sprint(rp.DeferredFailovers)))
		}
	}
	if tr != nil {
		rp.HasTrace = true
		rp.timingFrom(tr)
	}
	return rp
}

func check(name, want, got string) Check {
	return Check{Name: name, Want: want, Got: got, OK: want == got}
}

// kindCount returns one kind's census total (0 when absent).
func (rp *Report) kindCount(kind string) int {
	for _, k := range rp.KindTotals {
		if k.Kind == kind {
			return k.Count
		}
	}
	return 0
}

// censusFrom counts events per kind, sorted by kind.
func (rp *Report) censusFrom(events []obs.Event) {
	byKind := map[string]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	for kind, n := range byKind {
		rp.KindTotals = append(rp.KindTotals, KindCount{Kind: kind, Count: n})
	}
	sort.Slice(rp.KindTotals, func(i, j int) bool {
		return rp.KindTotals[i].Kind < rp.KindTotals[j].Kind
	})
}

// episodesFrom finds the maximal runs of consecutive breach ticks and
// classifies each one's root cause.
func (rp *Report) episodesFrom(events []obs.Event) {
	// Breach ticks (deduplicated — a multi-operator run can emit one
	// sla_breach per game at one tick) with the worst Υ per tick.
	worst := map[int]float64{}
	var ticks []int
	// Fault windows per center, refcounted like the engine: an
	// outage/degrade deepens, a recover/restore shallows; the window
	// spans first-open to last-close.
	type window struct{ start, end int } // end < start means still open
	depth := map[string]int{}
	open := map[string]int{}
	var windows []window
	// Ticks with injected grant trouble (rejections and their retries).
	rejects := map[int]bool{}
	// Failure-domain signals: region blackout and brownout windows
	// (refcounted by subject like the outage windows), brownout shed
	// and storm-control deferral ticks, and grant ticks (evidence the
	// provisioner was actively tracking — what separates a prediction
	// miss from an unclassified breach).
	blackOpen := map[string]int{}
	brownOpen := map[string]int{}
	sheds := map[int]bool{}
	deferred := map[int]bool{}
	grants := map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case obs.EventBreach:
			if v, ok := worst[e.Tick]; !ok || e.Value < v {
				if !ok {
					ticks = append(ticks, e.Tick)
				}
				worst[e.Tick] = e.Value
			}
		case obs.EventOutage, obs.EventDegrade:
			if depth[e.Subject] == 0 {
				open[e.Subject] = e.Tick
			}
			depth[e.Subject]++
		case obs.EventRecover, obs.EventRestore:
			if d := depth[e.Subject]; d > 0 {
				depth[e.Subject] = d - 1
				if d == 1 {
					windows = append(windows, window{start: open[e.Subject], end: e.Tick})
				}
			}
		case obs.EventRejection, obs.EventRetry:
			rejects[e.Tick] = true
		case obs.EventRegionBlackout:
			if _, live := blackOpen[e.Subject]; !live {
				blackOpen[e.Subject] = e.Tick
			}
		case obs.EventRegionRecover:
			if start, live := blackOpen[e.Subject]; live {
				delete(blackOpen, e.Subject)
				rp.Blackouts = append(rp.Blackouts,
					DomainWindow{Subject: e.Subject, StartTick: start, EndTick: e.Tick})
			}
		case obs.EventBrownoutStart:
			if _, live := brownOpen[e.Subject]; !live {
				brownOpen[e.Subject] = e.Tick
			}
		case obs.EventBrownoutEnd:
			if start, live := brownOpen[e.Subject]; live {
				delete(brownOpen, e.Subject)
				rp.Brownouts = append(rp.Brownouts,
					DomainWindow{Subject: e.Subject, StartTick: start, EndTick: e.Tick})
			}
		case obs.EventShed:
			rp.ShedEvents++
			rp.ShedPlayerTicks += e.Value
			sheds[e.Tick] = true
		case obs.EventDeferred:
			rp.DeferredFailovers++
			deferred[e.Tick] = true
		case obs.EventGrant:
			grants[e.Tick] = true
		}
	}
	for center, d := range depth {
		if d > 0 { // never recovered within the run
			windows = append(windows, window{start: open[center], end: math.MaxInt})
		}
	}
	for subject, start := range blackOpen { // region never recovered
		rp.Blackouts = append(rp.Blackouts,
			DomainWindow{Subject: subject, StartTick: start, EndTick: math.MaxInt})
	}
	for subject, start := range brownOpen { // brownout never lifted
		rp.Brownouts = append(rp.Brownouts,
			DomainWindow{Subject: subject, StartTick: start, EndTick: math.MaxInt})
	}
	sortWindows(rp.Blackouts)
	sortWindows(rp.Brownouts)
	sort.Ints(ticks)

	// lookback is the first tick whose signals can explain an episode
	// starting at s, saturating so that a stream's extreme ticks cannot
	// wrap the window around.
	lookback := func(s int) int {
		if s < math.MinInt+causeLookbackTicks {
			return math.MinInt
		}
		return s - causeLookbackTicks
	}
	overlapsOutage := func(s, e int) bool {
		for _, w := range windows {
			if w.start <= e && lookback(s) <= w.end {
				return true
			}
		}
		return false
	}
	overlapsDomain := func(ws []DomainWindow, s, e int) bool {
		for _, w := range ws {
			if w.StartTick <= e && lookback(s) <= w.EndTick {
				return true
			}
		}
		return false
	}
	near := func(m map[int]bool, s, e int) bool {
		// Stop on reaching e, never past it: e may be math.MaxInt.
		for t := lookback(s); ; t++ {
			if m[t] {
				return true
			}
			if t == e {
				return false
			}
		}
	}
	classify := func(s, e int) string {
		switch {
		case overlapsDomain(rp.Blackouts, s, e):
			return "region blackout"
		case overlapsDomain(rp.Brownouts, s, e) || near(sheds, s, e):
			return "brownout shedding"
		case overlapsOutage(s, e):
			return "outage"
		case near(rejects, s, e):
			return "rejection backoff"
		case near(deferred, s, e):
			return "failover storm control"
		case near(grants, s, e):
			return "prediction miss"
		default:
			return "unclassified"
		}
	}

	rp.BreachTicks = len(ticks)
	for i := 0; i < len(ticks); {
		j := i
		for j+1 < len(ticks) && ticks[j+1] == ticks[j]+1 {
			j++
		}
		ep := Episode{StartTick: ticks[i], EndTick: ticks[j], Ticks: j - i + 1}
		for k := i; k <= j; k++ {
			if v := worst[ticks[k]]; v < ep.WorstUnderPct {
				ep.WorstUnderPct = v
			}
		}
		ep.Cause = classify(ep.StartTick, ep.EndTick)
		if ep.Cause == "unclassified" {
			rp.Unclassified++
		}
		rp.Episodes = append(rp.Episodes, ep)
		i = j + 1
	}
}

// walkDispositions iterates a decision event's Detail — the
// "center=disposition,..." walk ecosystem.Decision.AppendWalk renders —
// calling fn once per candidate verdict.
func walkDispositions(detail string, fn func(center, disp string)) {
	for _, part := range strings.Split(detail, ",") {
		if center, disp, ok := strings.Cut(part, "="); ok {
			fn(center, disp)
		}
	}
}

// whyFrom walks each breach episode back through its decision chain.
// It also cross-checks the decision walks against the grant and
// rejection counters recorded at the same (tick, subject) sites — only
// pairs where both records exist, so a ring-truncated stream degrades
// to fewer comparisons, not false mismatches. Streams with no decision
// events (provenance disabled) are left untouched.
func (rp *Report) whyFrom(events []obs.Event) {
	type site struct {
		tick    int
		subject string
	}
	// A site can carry more than one decision (tick 0 runs bootstrap
	// and the first loop acquire for the same tag), so keep every walk
	// and aggregate the cross-checks per site.
	decisions := map[site][]string{}
	for _, e := range events {
		if e.Kind == obs.EventDecision {
			s := site{e.Tick, e.Subject}
			decisions[s] = append(decisions[s], e.Detail)
		}
	}
	if len(decisions) == 0 {
		return
	}
	rp.HasDecisions = true

	// Acquisition sites, deduplicated in stream order: the events the
	// engines emit when an acquire pass did something worth explaining.
	var sites []site
	seen := map[site]bool{}
	rejBySite := map[site]int{}
	grantMismatches := 0
	for _, e := range events {
		s := site{e.Tick, e.Subject}
		switch e.Kind {
		case obs.EventFailover, obs.EventRetry:
			if !seen[s] {
				seen[s] = true
				sites = append(sites, s)
			}
		case obs.EventRejection:
			rejBySite[s] += int(e.Value)
		case obs.EventGrant:
			if !seen[s] {
				seen[s] = true
				sites = append(sites, s)
			}
			// Every center the grant event names must appear in some
			// decision walk at the site with a granting disposition.
			walks := decisions[s]
			if len(walks) == 0 || !strings.HasPrefix(e.Detail, "centers: ") {
				break
			}
			for _, name := range strings.Split(strings.TrimPrefix(e.Detail, "centers: "), ",") {
				if name == "" {
					continue
				}
				found := false
				for _, walk := range walks {
					walkDispositions(walk, func(center, disp string) {
						if center == name && (disp == string(ecosystem.DispGranted) ||
							disp == string(ecosystem.DispPartialTrimmed)) {
							found = true
						}
					})
				}
				if !found {
					grantMismatches++
				}
			}
		}
	}
	// At every site with decision records, the walks' rejected-by-
	// injector verdicts must sum to the rejection events' counts.
	rejEvents, rejWalk := 0, 0
	for s, walks := range decisions {
		rejEvents += rejBySite[s]
		for _, walk := range walks {
			walkDispositions(walk, func(_, disp string) {
				if disp == string(ecosystem.DispRejectedByInjector) {
					rejWalk++
				}
			})
		}
	}

	for i, ep := range rp.Episodes {
		wc := WhyChain{Episode: i + 1}
		disp := map[string]int{}
		for _, s := range sites {
			if s.tick < ep.StartTick-causeLookbackTicks || s.tick > ep.EndTick {
				continue
			}
			wc.Acquisitions++
			walks, ok := decisions[s]
			if !ok {
				wc.Unexplained++
				continue
			}
			wc.Resolved++
			for _, walk := range walks {
				walkDispositions(walk, func(_, d string) { disp[d]++ })
			}
		}
		for name, n := range disp {
			wc.Dispositions = append(wc.Dispositions, KindCount{Kind: name, Count: n})
		}
		sort.Slice(wc.Dispositions, func(a, b int) bool {
			return wc.Dispositions[a].Kind < wc.Dispositions[b].Kind
		})
		rp.UnexplainedChains += wc.Unexplained
		rp.WhyChains = append(rp.WhyChains, wc)
	}

	rp.Checks = append(rp.Checks,
		check("rejection events match rejected-by-injector dispositions",
			fmt.Sprint(rejEvents), fmt.Sprint(rejWalk)),
		check("granted centers appear in decision walks (mismatches)",
			"0", fmt.Sprint(grantMismatches)))
}

// alertsFrom scores slo_alert firings against the breach episodes.
// Runs without an SLO engine (no slo_alert events at all) leave Alerts
// nil, so their reports are byte-identical to pre-engine ones.
func (rp *Report) alertsFrom(events []obs.Event) {
	saw := false
	var firings []int
	for _, e := range events {
		if e.Kind != obs.EventSLOAlert {
			continue
		}
		saw = true
		if e.Detail == "firing" {
			firings = append(firings, e.Tick)
		}
	}
	if !saw {
		return
	}
	sort.Ints(firings)
	aq := &AlertQuality{Fired: len(firings), Episodes: len(rp.Episodes)}
	for _, t := range firings {
		for _, ep := range rp.Episodes {
			if ep.StartTick <= t && t <= ep.EndTick+causeLookbackTicks {
				aq.TruePositives++
				break
			}
		}
	}
	lagSum := 0
	for _, ep := range rp.Episodes {
		for _, t := range firings { // sorted: first match is the earliest
			if ep.StartTick <= t && t <= ep.EndTick+causeLookbackTicks {
				aq.Detected++
				lag := t - ep.StartTick
				lagSum += lag
				if lag > aq.MaxLagTicks {
					aq.MaxLagTicks = lag
				}
				break
			}
		}
	}
	if aq.Detected > 0 {
		aq.MeanLagTicks = float64(lagSum) / float64(aq.Detected)
	}
	rp.Alerts = aq
}

// sortWindows orders domain windows for a stable report (map-fed).
func sortWindows(ws []DomainWindow) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].StartTick != ws[j].StartTick {
			return ws[i].StartTick < ws[j].StartTick
		}
		return ws[i].Subject < ws[j].Subject
	})
}

// centersFrom attributes grants to data centers via the grant events'
// "centers: a,b" detail, joined with availability from the metrics.
func (rp *Report) centersFrom(events []obs.Event, md *MetricsDoc) {
	type acc struct {
		grants int
		cpu    float64
	}
	byCenter := map[string]*acc{}
	for _, e := range events {
		if e.Kind != obs.EventGrant || !strings.HasPrefix(e.Detail, "centers: ") {
			continue
		}
		names := strings.Split(strings.TrimPrefix(e.Detail, "centers: "), ",")
		for _, name := range names {
			if name == "" {
				continue
			}
			a := byCenter[name]
			if a == nil {
				a = &acc{}
				byCenter[name] = a
			}
			a.grants++
			a.cpu += e.Value / float64(len(names))
		}
	}
	for name, a := range byCenter {
		avail := math.NaN()
		if md != nil && md.Resilience != nil {
			if v, ok := md.Resilience.Availability[name]; ok {
				avail = v * 100
			}
		}
		rp.Centers = append(rp.Centers, CenterAttribution{
			Name: name, Grants: a.grants, CPUUnits: a.cpu, AvailabilityPct: avail,
		})
	}
	sort.Slice(rp.Centers, func(i, j int) bool { return rp.Centers[i].Name < rp.Centers[j].Name })
}

// timingFrom derives the per-phase breakdown and failover/retry latency
// distributions from complete ("X") spans in the trace.
func (rp *Report) timingFrom(tr *obs.Trace) {
	phaseOrder := []string{
		"tick", "phase.observe", "phase.reduce", "phase.acquire",
		"acquire", "acquire.failover", "acquire.retry", "predict",
		"checkpoint.encode", "checkpoint.write", "bootstrap", "operator.observe",
	}
	stats := map[string]*PhaseStat{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := stats[ev.Name]
		if s == nil {
			s = &PhaseStat{Name: ev.Name}
			stats[ev.Name] = s
		}
		dur := ev.Duration()
		s.Spans++
		s.TotalUS += dur
		switch ev.Name {
		case "acquire.failover":
			rp.FailoverLatency.observe(dur)
		case "acquire.retry":
			rp.RetryLatency.observe(dur)
		}
	}
	rp.FailoverLatency.finalize()
	rp.RetryLatency.finalize()
	seen := map[string]bool{}
	add := func(name string) {
		if s := stats[name]; s != nil && !seen[name] {
			seen[name] = true
			s.MeanUS = s.TotalUS / float64(s.Spans)
			rp.Phases = append(rp.Phases, *s)
		}
	}
	for _, name := range phaseOrder {
		add(name)
	}
	// Any span families the fixed order missed, alphabetically.
	var rest []string
	for name := range stats {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		add(name)
	}
}

// Render writes the report as markdown/ASCII.
func (rp *Report) Render(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# mmogdc provisioning audit\n\n")

	b.WriteString("## Run summary\n\n")
	if rp.HasMetrics {
		fmt.Fprintf(&b, "ticks: %d  breach ticks: %d  unmet ticks: %d\n",
			rp.Ticks, rp.Events, rp.Unmet)
		fmt.Fprintf(&b, "recorder: %d events total, %d retained, %d overwritten, %d sink errors\n",
			rp.Recorder.Total, rp.Recorder.Retained, rp.Recorder.Dropped, rp.Recorder.SinkErrs)
		if rp.Recorder.Dropped > 0 || rp.Recorder.SinkErrs > 0 {
			fmt.Fprintf(&b, "WARNING: degraded telemetry — %d event(s) overwritten by the ring, %d sink error(s); stream-derived sections may undercount\n",
				rp.Recorder.Dropped, rp.Recorder.SinkErrs)
		}
	}
	fmt.Fprintf(&b, "event stream: %d events\n\n", rp.EventTotal)

	b.WriteString("## Event census\n\n")
	b.WriteString("| kind | count |\n|---|---:|\n")
	for _, k := range rp.KindTotals {
		fmt.Fprintf(&b, "| %s | %d |\n", k.Kind, k.Count)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "## SLA-breach episodes (%d episodes, %d breach ticks)\n\n",
		len(rp.Episodes), rp.BreachTicks)
	if len(rp.Episodes) == 0 {
		b.WriteString("none — no tick breached the significance threshold\n\n")
	} else {
		b.WriteString("| # | ticks | length | worst Y | root cause |\n|---:|---|---:|---:|---|\n")
		for i, ep := range rp.Episodes {
			span := fmt.Sprint(ep.StartTick)
			if ep.EndTick != ep.StartTick {
				span = fmt.Sprintf("%d-%d", ep.StartTick, ep.EndTick)
			}
			fmt.Fprintf(&b, "| %d | %s | %d | %.3f%% | %s |\n",
				i+1, span, ep.Ticks, ep.WorstUnderPct, ep.Cause)
		}
		if rp.Unclassified > 0 {
			fmt.Fprintf(&b, "\nWARNING: %d episode(s) unclassified — no signal in the stream explains them\n", rp.Unclassified)
		}
		b.WriteString("\n")
	}

	if rp.HasDecisions {
		b.WriteString("## Why (decision provenance)\n\n")
		fmt.Fprintf(&b, "decision records in stream: %d\n\n", rp.kindCount(obs.EventDecision))
		if len(rp.WhyChains) == 0 {
			b.WriteString("no breach episodes — nothing to walk back\n\n")
		} else {
			b.WriteString("| episode | acquisitions | resolved | unexplained | candidate dispositions |\n|---:|---:|---:|---:|---|\n")
			for _, wc := range rp.WhyChains {
				var parts []string
				for _, d := range wc.Dispositions {
					parts = append(parts, fmt.Sprintf("%s %d", d.Kind, d.Count))
				}
				summary := strings.Join(parts, ", ")
				if summary == "" {
					summary = "-"
				}
				fmt.Fprintf(&b, "| %d | %d | %d | %d | %s |\n",
					wc.Episode, wc.Acquisitions, wc.Resolved, wc.Unexplained, summary)
			}
			if rp.UnexplainedChains > 0 {
				fmt.Fprintf(&b, "\nWARNING: %d acquisition(s) in breach windows have no decision record\n", rp.UnexplainedChains)
			}
			b.WriteString("\n")
		}
	}

	if a := rp.Alerts; a != nil {
		b.WriteString("## Alert quality (SLO engine vs ground truth)\n\n")
		fmt.Fprintf(&b, "alerts fired: %d  true positives: %d  false alarms: %d\n",
			a.Fired, a.TruePositives, a.Fired-a.TruePositives)
		fmt.Fprintf(&b, "breach episodes: %d  detected: %d  missed: %d\n",
			a.Episodes, a.Detected, a.Episodes-a.Detected)
		fmt.Fprintf(&b, "precision %.3f  recall %.3f\n", a.Precision(), a.Recall())
		if a.Detected > 0 {
			fmt.Fprintf(&b, "detection lag ticks: mean %.1f  max %d\n", a.MeanLagTicks, a.MaxLagTicks)
		}
		b.WriteString("\n")
	}

	b.WriteString("## Per-center grant attribution\n\n")
	if len(rp.Centers) == 0 {
		b.WriteString("no grants recorded\n\n")
	} else {
		b.WriteString("| center | grants | CPU units | availability |\n|---|---:|---:|---:|\n")
		for _, c := range rp.Centers {
			avail := "n/a"
			if !math.IsNaN(c.AvailabilityPct) {
				avail = fmt.Sprintf("%.3f%%", c.AvailabilityPct)
			}
			fmt.Fprintf(&b, "| %s | %d | %.2f | %s |\n", c.Name, c.Grants, c.CPUUnits, avail)
		}
		b.WriteString("\n")
	}

	if len(rp.Blackouts) > 0 || len(rp.Brownouts) > 0 ||
		rp.ShedEvents > 0 || rp.DeferredFailovers > 0 {
		b.WriteString("## Failure domains\n\n")
		writeWindows := func(label string, ws []DomainWindow) {
			if len(ws) == 0 {
				return
			}
			fmt.Fprintf(&b, "%s:\n\n| subject | ticks |\n|---|---|\n", label)
			for _, w := range ws {
				span := fmt.Sprintf("%d-%d", w.StartTick, w.EndTick)
				if w.EndTick == math.MaxInt {
					span = fmt.Sprintf("%d-(never recovered)", w.StartTick)
				}
				fmt.Fprintf(&b, "| %s | %s |\n", w.Subject, span)
			}
			b.WriteString("\n")
		}
		writeWindows("Region blackouts", rp.Blackouts)
		writeWindows("Brownout windows", rp.Brownouts)
		if rp.ShedEvents > 0 {
			fmt.Fprintf(&b, "brownout shedding: %d shed events, %.1f player-ticks deliberately unserved\n",
				rp.ShedEvents, rp.ShedPlayerTicks)
		}
		if rp.DeferredFailovers > 0 {
			fmt.Fprintf(&b, "failover storm control: %d failovers deferred to jittered retry ticks\n",
				rp.DeferredFailovers)
		}
		if rp.ShedEvents > 0 || rp.DeferredFailovers > 0 {
			b.WriteString("\n")
		}
	}

	if rp.HasTrace {
		b.WriteString("## Failover / retry latency (trace spans)\n\n")
		b.WriteString("| span | count | min us | mean us | max us |\n|---|---:|---:|---:|---:|\n")
		writeDist := func(name string, d LatencyDist) {
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.1f | %.1f |\n",
				name, d.Count, d.MinUS, d.MeanUS, d.MaxUS)
		}
		writeDist("acquire.failover", rp.FailoverLatency)
		writeDist("acquire.retry", rp.RetryLatency)
		b.WriteString("\n")

		b.WriteString("## Per-phase tick time (trace spans)\n\n")
		b.WriteString("| span | count | total us | mean us |\n|---|---:|---:|---:|\n")
		for _, p := range rp.Phases {
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.1f |\n", p.Name, p.Spans, p.TotalUS, p.MeanUS)
		}
		b.WriteString("\n")
	}

	if rpp := rp.RequestPath; rpp != nil {
		b.WriteString("## Request critical path (cross-process trace)\n\n")
		fmt.Fprintf(&b, "matched requests: %d (client %d, server %d)\n\n",
			rpp.Matched, rpp.ClientRequests, rpp.ServerRequests)
		b.WriteString("| stage | count | min us | mean us | max us |\n|---|---:|---:|---:|---:|\n")
		writeStage := func(name string, d LatencyDist) {
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.1f | %.1f |\n",
				name, d.Count, d.MinUS, d.MeanUS, d.MaxUS)
		}
		writeStage("client.request (RTT)", rpp.ClientRTT)
		writeStage("daemon.queue_wait", rpp.QueueWait)
		writeStage("daemon.observe", rpp.Observe)
		writeStage("operator.acquire", rpp.Acquire)
		b.WriteString("\n")
	}

	if rp.Load != nil {
		ld := rp.Load
		b.WriteString("## Daemon load (Meterstick-style)\n\n")
		fmt.Fprintf(&b, "game %s: %d samples in %.2fs (%.1f/s attempted)\n",
			ld.Game, ld.Samples, ld.DurationSeconds, ld.AttemptedHz)
		shedPct := 0.0
		if ld.Samples > 0 {
			shedPct = 100 * float64(ld.Shed) / float64(ld.Samples)
		}
		fmt.Fprintf(&b, "accepted %d  shed %d (%.1f%%)  rejected %d\n",
			ld.Accepted, ld.Shed, shedPct, ld.Rejected)
		if ld.Retries > 0 {
			fmt.Fprintf(&b, "transient retries: %d (capped jittered backoff)\n", ld.Retries)
		}
		fmt.Fprintf(&b, "observe-loop RTT ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
			ld.RTT.P50MS, ld.RTT.P95MS, ld.RTT.P99MS, ld.RTT.MaxMS)
		for _, status := range []string{"accepted", "shed", "rejected"} {
			q, ok := ld.RTTByStatus[status]
			if !ok || q.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %s (%d): p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
				status, q.Count, q.P50MS, q.P95MS, q.P99MS, q.MaxMS)
		}
		b.WriteString("\n")
	}

	if len(rp.Checks) > 0 {
		b.WriteString("## Consistency checks\n\n")
		for _, c := range rp.Checks {
			status := "OK"
			if !c.OK {
				status = fmt.Sprintf("MISMATCH (want %s, got %s)", c.Want, c.Got)
			}
			fmt.Fprintf(&b, "- %s: %s\n", c.Name, status)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
