package audit

import (
	"fmt"
	"sort"

	"mmogdc/internal/obs"
)

// RequestPathReport is the cross-process request critical path: the
// client's round trip joined, request by request, with the daemon-side
// stages it decomposes into (queue wait, observe cycle, lease
// acquisition). Built by CrossProcess from a mmogload client trace and
// a mmogd server trace whose spans were chained with W3C traceparent.
type RequestPathReport struct {
	// ClientRequests / ServerRequests count the client.request and
	// daemon.request spans in their respective traces; Matched counts
	// the server requests whose recorded parent is a client span —
	// the requests the merged timeline can follow end to end.
	ClientRequests int
	ServerRequests int
	Matched        int

	// Stage latencies over the whole run (microseconds).
	ClientRTT LatencyDist // client.request: send -> final status, retries included
	QueueWait LatencyDist // daemon.queue_wait: accepted -> dequeued by the worker
	Observe   LatencyDist // daemon.observe: dequeue -> observe cycle finished
	Acquire   LatencyDist // operator.acquire: the lease-acquisition step
}

// argID reads a numeric span-ID argument from a trace event. Chrome
// trace args round-trip through JSON as float64, which is exact for
// the IDs the tracer mints (PID-prefixed, < 2^53).
func argID(ev obs.TraceEvent, key string) (uint64, bool) {
	v, ok := ev.Args[key].(float64)
	if !ok {
		return 0, false
	}
	return uint64(v), true
}

// CrossProcess joins a client trace (cmd/mmogload -trace-out) with a
// server trace (cmd/mmogd -trace-out) into one timeline. daemon.request
// spans name their parent client span (propagated in the traceparent
// header), which both scores the match rate and anchors the clock
// alignment: the two processes rebase timestamps to their own first
// span, so the client events are shifted by the median observed
// client-request / server-request offset before merging. Client events
// come back with PID 2 so the viewer renders the two processes as
// separate tracks; server events keep PID 1 and their parent/span IDs,
// which stay collision-free thanks to the PID-prefixed ID bases.
func CrossProcess(client, server *obs.Trace) (*RequestPathReport, []obs.TraceEvent) {
	rp := &RequestPathReport{}

	clientBySpan := map[uint64]obs.TraceEvent{}
	for _, ev := range client.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "client.request" {
			rp.ClientRequests++
			rp.ClientRTT.observe(ev.Duration())
			if id, ok := argID(ev, "span"); ok {
				clientBySpan[id] = ev
			}
		}
	}

	var offsets []float64
	for _, ev := range server.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "daemon.request":
			rp.ServerRequests++
			if parent, ok := argID(ev, "parent"); ok {
				if c, hit := clientBySpan[parent]; hit {
					rp.Matched++
					offsets = append(offsets, c.TS-ev.TS)
				}
			}
		case "daemon.queue_wait":
			rp.QueueWait.observe(ev.Duration())
		case "daemon.observe":
			rp.Observe.observe(ev.Duration())
		case "operator.acquire":
			rp.Acquire.observe(ev.Duration())
		}
	}
	rp.ClientRTT.finalize()
	rp.QueueWait.finalize()
	rp.Observe.finalize()
	rp.Acquire.finalize()

	// Median client->server offset: robust against the few requests
	// whose retries or shed responses skew the pairwise deltas.
	var shift float64
	if len(offsets) > 0 {
		sort.Float64s(offsets)
		shift = offsets[len(offsets)/2]
	}

	merged := make([]obs.TraceEvent, 0, len(client.TraceEvents)+len(server.TraceEvents))
	merged = append(merged, server.TraceEvents...)
	for _, ev := range client.TraceEvents {
		ev.PID = 2
		ev.TS -= shift
		merged = append(merged, ev)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].TS < merged[j].TS })
	return rp, merged
}

// AttachRequestPath folds a cross-process merge into the report, with
// a consistency check that the traced client requests all reached the
// server trace (every accepted, shed, or rejected request produces a
// daemon.request span; only transport-failed ones may be missing).
func (rp *Report) AttachRequestPath(rpp *RequestPathReport) {
	rp.RequestPath = rpp
	rp.Checks = append(rp.Checks,
		check("cross-process trace: matched requests bounded by both traces",
			"true",
			fmt.Sprint(rpp.Matched <= rpp.ClientRequests && rpp.Matched <= rpp.ServerRequests)))
}
