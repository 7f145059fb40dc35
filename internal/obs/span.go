package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the span-tracing half of the observability layer: a
// nil-safe, lock-cheap tracer of causally-linked spans driven by the
// injectable Clock (deterministic traces under ManualClock), exported
// as Chrome trace_event JSON (loadable in Perfetto or chrome://tracing).
// The trace format is defined here once: TraceEvent, written by
// WriteTrace and WriteTraceEvents and read by ReadTrace, which
// cmd/mmogaudit uses.
//
// The span model mirrors the engines' structure: one root span per
// simulation tick, phase child spans (observe/reduce/acquire), per-zone
// predict spans annotated with the executing par.Pool worker index,
// per-zone acquire spans whose Link field chains failover spans to the
// outage window and retry spans to the rejection they back off from,
// and async begin/end pairs tracking fault windows across ticks.

// SpanID identifies one span within a trace. 0 means "no span".
type SpanID uint64

// Record phases (the trace_event ph values they export as).
const (
	PhaseSpan       = "span"   // complete span ("X")
	PhaseAsyncBegin = "abegin" // async window opens ("b")
	PhaseAsyncEnd   = "aend"   // async window closes ("e")
)

// SpanRec is one recorded trace entry. Beyond identity (ID, Parent)
// and timing, it carries the small fixed annotation set the engines
// need — a subject (zone tag or center name), the simulation tick, the
// executing worker index, a free numeric value, and an optional causal
// Link to a related span (failover→outage window, retry→rejection).
type SpanRec struct {
	ID      SpanID    `json:"id"`
	Parent  SpanID    `json:"parent,omitempty"`
	Link    SpanID    `json:"link,omitempty"`
	Name    string    `json:"name"`
	Cat     string    `json:"cat,omitempty"`
	Phase   string    `json:"phase"`
	Subject string    `json:"subject,omitempty"`
	Tick    int       `json:"tick"`
	Worker  int       `json:"worker,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end,omitempty"`
}

// Tracer records spans into a bounded buffer. When the buffer fills,
// new records are dropped (the earliest history is the valuable part
// of a trace) and counted. All methods are safe on a nil receiver —
// a nil *Tracer begins nil *Spans whose methods are allocation-free
// no-ops and makes no clock calls — and safe for concurrent use.
type Tracer struct {
	// TraceID tags every exported record; runs can set it to correlate
	// multi-process traces. Defaults to 1.
	TraceID uint64
	// Clock times the spans; nil falls back to System. Set a
	// ManualClock for deterministic traces.
	Clock Clock

	mu      sync.Mutex
	nextID  SpanID
	recs    []SpanRec
	cap     int
	dropped uint64
}

// DefaultTracerCapacity is the record budget NewTracer uses for
// capacity <= 0: enough for a one-day run's per-zone spans.
const DefaultTracerCapacity = 1 << 18

// NewTracer builds a tracer retaining the first capacity records
// (DefaultTracerCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{TraceID: 1, cap: capacity}
}

func (t *Tracer) clockNow() time.Time {
	if t.Clock == nil {
		return time.Now()
	}
	return t.Clock.Now()
}

// emit assigns an ID if the record has none and appends it, dropping
// (and counting) once the buffer is full. Returns the record's ID.
func (t *Tracer) emit(rec SpanRec) SpanID {
	t.mu.Lock()
	if rec.ID == 0 {
		t.nextID++
		rec.ID = t.nextID
	}
	if len(t.recs) >= t.cap {
		t.dropped++
	} else {
		t.recs = append(t.recs, rec)
	}
	id := rec.ID
	t.mu.Unlock()
	return id
}

// SetIDBase starts span-ID allocation at base+1. Processes that will
// have their traces merged (mmogload's client trace with mmogd's
// server trace) call this with a per-process prefix — see PIDSpanBase
// — so span IDs never collide across the merged timeline. Call it
// before the first span is begun; it does not renumber existing
// records.
func (t *Tracer) SetIDBase(base SpanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID = base
	t.mu.Unlock()
}

// allocID hands out the next span ID.
func (t *Tracer) allocID() SpanID {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// Span is a live (begun, not yet ended) span handle. All methods are
// no-ops on a nil receiver, so call sites never branch on whether
// tracing is enabled.
type Span struct {
	t   *Tracer
	rec SpanRec
}

// Begin starts a span, reading the tracer's clock. A nil tracer
// returns a nil span (no clock call, no allocation).
func (t *Tracer) Begin(name, cat string, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	return t.BeginAt(name, cat, parent, t.clockNow())
}

// BeginAt starts a span at an already-measured instant (no clock
// call) — the engines bracket phases with one clock read and share it
// between the histogram and the span.
func (t *Tracer) BeginAt(name, cat string, parent SpanID, start time.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, rec: SpanRec{
		ID: t.allocID(), Parent: parent, Name: name, Cat: cat,
		Phase: PhaseSpan, Start: start,
	}}
}

// ID returns the span's ID (0 for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// SetSubject annotates the span with a zone tag or center name.
func (s *Span) SetSubject(v string) {
	if s != nil {
		s.rec.Subject = v
	}
}

// SetTick annotates the span with the simulation tick.
func (s *Span) SetTick(t int) {
	if s != nil {
		s.rec.Tick = t
	}
}

// SetWorker annotates the span with the executing worker index (the
// trace_event tid, so per-worker tracks line up in the viewer).
func (s *Span) SetWorker(w int) {
	if s != nil {
		s.rec.Worker = w
	}
}

// SetValue attaches a free numeric annotation.
func (s *Span) SetValue(v float64) {
	if s != nil {
		s.rec.Value = v
	}
}

// SetLink chains this span to a causally related one (a failover to
// its outage window, a retry to the rejection it backs off from).
func (s *Span) SetLink(id SpanID) {
	if s != nil {
		s.rec.Link = id
	}
}

// End closes the span at the tracer's clock and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.t.clockNow())
}

// EndAt closes the span at an already-measured instant and records it.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.rec.End = end
	s.t.emit(s.rec)
}

// Complete records an already-timed span in one call (no clock reads)
// and returns its ID.
func (t *Tracer) Complete(rec SpanRec) SpanID {
	if t == nil {
		return 0
	}
	rec.Phase = PhaseSpan
	return t.emit(rec)
}

// AsyncBegin opens an async window (an outage or degradation track
// event spanning ticks) and returns its ID for the matching AsyncEnd
// and for Link annotations on spans it causes.
func (t *Tracer) AsyncBegin(name, cat, subject string, tick int, value float64) SpanID {
	if t == nil {
		return 0
	}
	return t.emit(SpanRec{
		Name: name, Cat: cat, Phase: PhaseAsyncBegin,
		Subject: subject, Tick: tick, Value: value, Start: t.clockNow(),
	})
}

// AsyncEnd closes the async window opened under id. The name and cat
// must match the AsyncBegin (trace_event pairs b/e by name+cat+id).
func (t *Tracer) AsyncEnd(id SpanID, name, cat, subject string, tick int) {
	if t == nil || id == 0 {
		return
	}
	t.emit(SpanRec{
		ID: id, Name: name, Cat: cat, Phase: PhaseAsyncEnd,
		Subject: subject, Tick: tick, Start: t.clockNow(),
	})
}

// Records returns a copy of the retained records in emit order.
func (t *Tracer) Records() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRec(nil), t.recs...)
}

// Len returns the number of retained records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Dropped returns how many records the capacity bound discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// sortedRecords returns the retained records in deterministic export
// order: by start time, then phase, name, subject, and ID. Under a
// sequential run with a ManualClock the order — and therefore the
// exported bytes — is a pure function of the simulation.
func (t *Tracer) sortedRecords() []SpanRec {
	recs := t.Records()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.ID < b.ID
	})
	return recs
}

// epoch returns the earliest start among the records; exported
// timestamps are microseconds since this instant.
func epoch(recs []SpanRec) time.Time {
	var e time.Time
	for i, r := range recs {
		if i == 0 || r.Start.Before(e) {
			e = r.Start
		}
	}
	return e
}

// TraceEvent is one Chrome trace_event object: the schema WriteTrace
// writes, ReadTrace reads back and WriteTraceEvents writes again, so a
// trace read and rewritten keeps its bytes. Dur is a pointer so that a
// zero-length complete span keeps "dur":0 while async events carry no
// duration at all; read it through Duration.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Duration returns the event's duration in microseconds (0 when it has
// none).
func (ev TraceEvent) Duration() float64 {
	if ev.Dur == nil {
		return 0
	}
	return *ev.Dur
}

// Trace is a parsed Chrome trace_event document.
type Trace struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// ReadTrace parses a Chrome trace_event JSON document
// ({"traceEvents": [...]}).
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	return &t, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// toTraceEvent maps one record into the Chrome schema.
func toTraceEvent(r SpanRec, e time.Time, traceID uint64) TraceEvent {
	ev := TraceEvent{
		Name: r.Name, Cat: r.Cat, PID: 1, TID: r.Worker,
		TS: micros(r.Start.Sub(e)),
	}
	if ev.Cat == "" {
		ev.Cat = "mmogdc"
	}
	args := map[string]any{"trace": traceID, "span": uint64(r.ID), "tick": r.Tick}
	if r.Parent != 0 {
		args["parent"] = uint64(r.Parent)
	}
	if r.Link != 0 {
		args["link"] = uint64(r.Link)
	}
	if r.Subject != "" {
		args["subject"] = r.Subject
	}
	if r.Value != 0 {
		args["value"] = r.Value
	}
	ev.Args = args
	switch r.Phase {
	case PhaseAsyncBegin:
		ev.Ph, ev.ID = "b", fmt.Sprintf("0x%x", uint64(r.ID))
	case PhaseAsyncEnd:
		ev.Ph, ev.ID = "e", fmt.Sprintf("0x%x", uint64(r.ID))
	default:
		ev.Ph = "X"
		dur := micros(r.End.Sub(r.Start))
		if dur < 0 {
			dur = 0
		}
		ev.Dur = &dur
	}
	return ev
}

// WriteTrace renders the trace as one Chrome trace_event JSON document
// ({"traceEvents": [...]}), viewable in Perfetto or chrome://tracing.
// A nil tracer writes an empty document. The output is deterministic
// for a deterministic record set (sorted, fixed field order).
func (t *Tracer) WriteTrace(w io.Writer) error {
	recs := t.sortedRecords()
	e := epoch(recs)
	var traceID uint64 = 1
	if t != nil {
		traceID = t.TraceID
	}
	return writeEvents(w, len(recs), func(i int) TraceEvent { return toTraceEvent(recs[i], e, traceID) })
}

// WriteTraceFile writes the trace (see WriteTrace) to a new file at
// path.
func (t *Tracer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteTraceEvents writes events as one Chrome trace_event document, in
// the layout WriteTrace uses.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	return writeEvents(w, len(events), func(i int) TraceEvent { return events[i] })
}

// writeEvents writes the document envelope around n events, one per
// line, marshaling each as it goes.
func writeEvents(w io.Writer, n int, event func(i int) TraceEvent) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		line, err := json.Marshal(event(i))
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}
