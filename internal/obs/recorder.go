package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured provisioning event for the flight recorder:
// what happened (Kind), to whom (Subject — a center name or zone tag),
// when (Tick), with an optional free-form Detail and numeric Value
// whose meaning depends on the kind (granted CPU units, outage
// fraction, checkpoint bytes, ...). Seq is the event's position in the
// recorder's total order (assigned by Record, starting at 1), so a
// JSONL replay stays totally ordered across ring overwrites; Span is
// the ID of the enclosing tracer span when tracing was on, so events
// and spans cross-reference.
type Event struct {
	Seq     uint64  `json:"seq"`
	Tick    int     `json:"tick"`
	Kind    string  `json:"kind"`
	Subject string  `json:"subject,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Span    SpanID  `json:"span,omitempty"`
}

// Event kinds recorded by the provisioning engines.
const (
	EventGrant      = "grant"          // leases acquired (Value: CPU units granted)
	EventRejection  = "rejection"      // injected grant rejections hit (Value: count)
	EventFailover   = "failover"       // same-tick re-acquisition of lost capacity (Value: leases won)
	EventRetry      = "retry"          // backed-off re-attempt after rejections
	EventOutage     = "outage"         // a center went fully offline
	EventDegrade    = "degrade"        // a center lost a fraction of machines (Value: surviving fraction)
	EventRecover    = "recover"        // a center returned to full health
	EventRestore    = "restore"        // partial capacity restored (Value: fraction back)
	EventDropped    = "dropped_sample" // a monitoring sample was lost (LOCF carried forward)
	EventCheckpoint = "checkpoint"     // a checkpoint was written (Value: payload bytes)
	EventResume     = "resume"         // the run resumed from a checkpoint (Value: tick)
	EventBreach     = "sla_breach"     // a tick with significant under-allocation (Value: worst Y%, <= 0)

	// Correlated-failure and graceful-degradation kinds (PR 8).
	EventRegionBlackout = "region_blackout"   // every center of a failure domain went dark (Subject: region)
	EventRegionRecover  = "region_recover"    // a blacked-out region's centers came back (Subject: region)
	EventBrownoutStart  = "brownout_start"    // surviving capacity < demand; priority shedding engaged (Value: demand−budget CPU)
	EventBrownoutEnd    = "brownout_end"      // capacity covers demand again; shedding disengaged
	EventShed           = "shed"              // a zone's demand was shed in brownout (Value: players shed)
	EventDeferred       = "failover_deferred" // storm control pushed a failover to a later tick (Value: retry tick)

	// SLO engine kind (PR 9).
	EventSLOAlert = "slo_alert" // a burn-rate rule fired or resolved (Subject: rule, Detail: "firing"/"resolved", Value: short-window burn)

	// Decision provenance kind (PR 10). Subject is the requesting
	// zone/game tag, Detail the per-candidate walk
	// ("center=disposition,...", as ecosystem.Decision.AppendWalk
	// renders it), Value the DecisionLog sequence number, Span the
	// enclosing acquire span — the join key tying a grant/failover
	// event to the ranking that produced it. A run repeats a few
	// hundred distinct walks, so the provisioning step interns them:
	// events with the same walk share one string.
	EventDecision = "decision"
)

// Recorder is a bounded ring buffer of Events — the flight recorder.
// When full, the oldest events are overwritten; Total and Dropped
// account for the loss. An optional sink receives every event as one
// JSON line at record time, for post-mortem replay of a whole run.
// All methods are safe on a nil receiver and for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	buf      []Event
	next     int // write cursor
	full     bool
	total    uint64
	sink     io.Writer
	sinkErrs uint64
}

// DefaultRecorderCapacity is the ring size NewRecorder uses for
// capacity <= 0.
const DefaultRecorderCapacity = 4096

// NewRecorder builds a recorder holding the last capacity events
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// SetSink streams every subsequently recorded event to w as JSONL.
// Pass nil to detach. Write errors are counted (SinkErrs), never
// propagated — observability must not fail the run.
func (r *Recorder) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = w
	r.mu.Unlock()
}

// Record appends one event, assigning its Seq (the recorder's total
// order, starting at 1) under the lock so retained events and sink
// lines share one numbering even after the ring wraps.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.total + 1
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	sink := r.sink
	if sink != nil {
		// Marshal inside the lock so sink lines keep record order.
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = sink.Write(line)
		}
		if err != nil {
			r.sinkErrs++
		}
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns how many events were ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// SinkErrs returns how many sink writes failed.
func (r *Recorder) SinkErrs() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErrs
}
