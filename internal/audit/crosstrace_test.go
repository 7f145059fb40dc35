package audit

import (
	"bytes"
	"strings"
	"testing"

	"mmogdc/internal/obs"
)

// span builds one complete-phase trace event with the tracer's arg
// schema (span/parent IDs as JSON numbers, i.e. float64 after decode).
func span(name string, ts, dur float64, id, parent uint64) obs.TraceEvent {
	args := map[string]any{"span": float64(id)}
	if parent != 0 {
		args["parent"] = float64(parent)
	}
	return obs.TraceEvent{Name: name, Cat: "t", Ph: "X", TS: ts, Dur: &dur, PID: 1, Args: args}
}

func TestCrossProcessMergesAndScores(t *testing.T) {
	// Client: three requests; the third was never admitted (transport
	// failure), so the server trace has no daemon.request for it.
	client := &obs.Trace{TraceEvents: []obs.TraceEvent{
		span("client.request", 100, 50, 0x2000001, 0),
		span("client.request", 300, 40, 0x2000002, 0),
		span("client.request", 500, 45, 0x2000003, 0),
	}}
	// Server: two matched requests (parent = the client span), plus the
	// per-request pipeline stages. Server clock rebased differently —
	// its first request sits at TS 0 while the client's sits at 100.
	server := &obs.Trace{TraceEvents: []obs.TraceEvent{
		span("daemon.request", 0, 48, 0x1000001, 0x2000001),
		span("daemon.request", 200, 38, 0x1000002, 0x2000002),
		span("daemon.queue_wait", 10, 5, 0x1000003, 0x1000001),
		span("daemon.queue_wait", 210, 7, 0x1000004, 0x1000002),
		span("daemon.observe", 15, 20, 0x1000005, 0x1000001),
		span("daemon.observe", 217, 18, 0x1000006, 0x1000002),
		span("operator.acquire", 20, 10, 0x1000007, 0x1000005),
	}}

	rpp, merged := CrossProcess(client, server)
	if rpp.ClientRequests != 3 || rpp.ServerRequests != 2 || rpp.Matched != 2 {
		t.Fatalf("counts = client %d server %d matched %d, want 3/2/2",
			rpp.ClientRequests, rpp.ServerRequests, rpp.Matched)
	}
	if rpp.ClientRTT.Count != 3 || rpp.QueueWait.Count != 2 ||
		rpp.Observe.Count != 2 || rpp.Acquire.Count != 1 {
		t.Fatalf("stage counts = %d/%d/%d/%d, want 3/2/2/1",
			rpp.ClientRTT.Count, rpp.QueueWait.Count, rpp.Observe.Count, rpp.Acquire.Count)
	}
	if rpp.QueueWait.MeanUS != 6 {
		t.Fatalf("queue wait mean = %v, want 6", rpp.QueueWait.MeanUS)
	}

	if len(merged) != len(client.TraceEvents)+len(server.TraceEvents) {
		t.Fatalf("merged %d events, want %d", len(merged), 10)
	}
	// Both pairwise offsets are 100, so the median shift realigns the
	// client requests exactly onto their server requests; client events
	// move to PID 2, server events keep PID 1 and their IDs.
	for _, ev := range merged {
		switch ev.Name {
		case "client.request":
			if ev.PID != 2 {
				t.Fatalf("client event kept pid %d", ev.PID)
			}
			id, _ := argID(ev, "span")
			if id == 0x2000001 && ev.TS != 0 {
				t.Fatalf("client request 1 aligned to TS %v, want 0", ev.TS)
			}
		default:
			if ev.PID != 1 {
				t.Fatalf("server event %s moved to pid %d", ev.Name, ev.PID)
			}
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, merged); err != nil {
		t.Fatal(err)
	}
	reparsed, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("merged trace does not round-trip: %v", err)
	}
	if len(reparsed.TraceEvents) != len(merged) {
		t.Fatalf("round-trip lost events: %d != %d", len(reparsed.TraceEvents), len(merged))
	}

	rp := Analyze(nil, nil, nil)
	rp.AttachRequestPath(rpp)
	var out bytes.Buffer
	if err := rp.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matched requests: 2 (client 3, server 2)") {
		t.Fatalf("critical-path section missing:\n%s", out.String())
	}
}

// TestAlertQualityScoring pins the precision/recall/lag arithmetic: two
// episodes, one detected with lag 1, one missed, plus one false alarm
// outside any episode's window.
func TestAlertQualityScoring(t *testing.T) {
	events := []obs.Event{
		// Episode 1: ticks 10-12. Episode 2: ticks 40-41.
		{Tick: 10, Kind: obs.EventBreach, Subject: "g", Value: -5},
		{Tick: 11, Kind: obs.EventBreach, Subject: "g", Value: -6},
		{Tick: 12, Kind: obs.EventBreach, Subject: "g", Value: -4},
		{Tick: 40, Kind: obs.EventBreach, Subject: "g", Value: -2},
		{Tick: 41, Kind: obs.EventBreach, Subject: "g", Value: -2},
		// Fires inside episode 1 (lag 1), plus a false alarm at tick
		// 100, far past every episode's lookback-extended window.
		{Tick: 11, Kind: obs.EventSLOAlert, Subject: "r", Detail: "firing", Value: 3},
		{Tick: 30, Kind: obs.EventSLOAlert, Subject: "r", Detail: "resolved"},
		{Tick: 100, Kind: obs.EventSLOAlert, Subject: "r", Detail: "firing", Value: 2},
	}
	rp := Analyze(events, nil, nil)
	a := rp.Alerts
	if a == nil {
		t.Fatal("slo_alert events present but Alerts nil")
	}
	if a.Fired != 2 || a.TruePositives != 1 || a.Episodes != 2 || a.Detected != 1 {
		t.Fatalf("scoring = %+v, want fired 2, tp 1, episodes 2, detected 1", a)
	}
	if a.Precision() != 0.5 || a.Recall() != 0.5 {
		t.Fatalf("precision %v recall %v, want 0.5 / 0.5", a.Precision(), a.Recall())
	}
	if a.MeanLagTicks != 1 || a.MaxLagTicks != 1 {
		t.Fatalf("lag mean %v max %d, want 1 / 1", a.MeanLagTicks, a.MaxLagTicks)
	}

	var out bytes.Buffer
	if err := rp.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Alert quality",
		"precision 0.500  recall 0.500",
		"detection lag ticks: mean 1.0  max 1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}

	// Without slo_alert events the section must not exist at all.
	rp2 := Analyze(events[:5], nil, nil)
	if rp2.Alerts != nil {
		t.Fatal("Alerts non-nil without slo_alert events")
	}
	out.Reset()
	if err := rp2.Render(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Alert quality") {
		t.Fatal("alert-quality section rendered without an engine")
	}
}

// TestAttachLoadPerStatus pins the new accounting check: per-status
// counts must sum to the sample total when the breakdown is present.
func TestAttachLoadPerStatus(t *testing.T) {
	ld := &LoadReport{
		Game: "g", Samples: 10, Accepted: 7, Shed: 2, Rejected: 1,
		RTTByStatus: map[string]StatusQuantiles{
			"accepted": {Count: 7, LoadQuantiles: LoadQuantiles{P50MS: 1}},
			"shed":     {Count: 2, LoadQuantiles: LoadQuantiles{P50MS: 0.2}},
			"rejected": {Count: 1, LoadQuantiles: LoadQuantiles{P50MS: 0.1}},
		},
	}
	rp := Analyze(nil, nil, nil)
	rp.AttachLoad(ld)
	for _, c := range rp.Checks {
		if !c.OK {
			t.Fatalf("check %q failed: want %s got %s", c.Name, c.Want, c.Got)
		}
	}
	var out bytes.Buffer
	if err := rp.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accepted (7):") {
		t.Fatalf("per-status RTT line missing:\n%s", out.String())
	}

	// A miscounted breakdown must fail the check.
	bad := *ld
	bad.RTTByStatus = map[string]StatusQuantiles{"accepted": {Count: 3}}
	rp2 := Analyze(nil, nil, nil)
	rp2.AttachLoad(&bad)
	found := false
	for _, c := range rp2.Checks {
		if strings.Contains(c.Name, "per-status") && !c.OK {
			found = true
		}
	}
	if !found {
		t.Fatal("miscounted per-status breakdown passed the accounting check")
	}
}
