package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func manualTracer() *Tracer {
	tr := NewTracer(0)
	tr.Clock = NewManualClock(time.Unix(0, 0), time.Millisecond)
	return tr
}

func TestSpanHierarchyAndAnnotations(t *testing.T) {
	tr := manualTracer()
	root := tr.Begin("tick", "tick", 0)
	root.SetTick(7)
	child := tr.Begin("phase.observe", "tick", root.ID())
	child.SetTick(7)
	zone := tr.Begin("predict", "zone", child.ID())
	zone.SetSubject("A/z1")
	zone.SetWorker(2)
	zone.SetValue(3.5)
	zone.End()
	child.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Records land in end order: zone, child, root.
	z, c, r := recs[0], recs[1], recs[2]
	if z.Parent != c.ID || c.Parent != r.ID || r.Parent != 0 {
		t.Fatalf("parent chain broken: %+v", recs)
	}
	if z.Subject != "A/z1" || z.Worker != 2 || z.Value != 3.5 {
		t.Fatalf("zone annotations lost: %+v", z)
	}
	if r.Tick != 7 || !r.End.After(r.Start) {
		t.Fatalf("root span malformed: %+v", r)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y", 0)
	if sp != nil {
		t.Fatal("nil tracer must begin nil spans")
	}
	// Every method must be a no-op, not a panic.
	sp.SetSubject("s")
	sp.SetTick(1)
	sp.SetWorker(1)
	sp.SetValue(1)
	sp.SetLink(1)
	sp.End()
	sp.EndAt(time.Time{})
	if sp.ID() != 0 {
		t.Fatal("nil span must have ID 0")
	}
	if tr.Complete(SpanRec{}) != 0 ||
		tr.AsyncBegin("a", "", "", 0, 0) != 0 {
		t.Fatal("nil tracer must hand out ID 0")
	}
	tr.AsyncEnd(1, "a", "", "", 0)
	if tr.Records() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report empty state")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-tracer trace not valid JSON: %s", buf.String())
	}
}

func TestTracerDisabledIsAllocationFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("tick", "tick", 0)
		sp.SetTick(1)
		sp.SetWorker(3)
		sp.SetLink(2)
		sp.End()
		tr.AsyncBegin("outage", "faults", "c", 1, 1)
		tr.AsyncEnd(1, "outage", "faults", "c", 2)
		tr.Complete(SpanRec{Name: "phase.reduce"})
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestTracerCapacityDropsAndCounts(t *testing.T) {
	tr := NewTracer(2)
	tr.Clock = NewManualClock(time.Unix(0, 0), time.Millisecond)
	for i := 0; i < 5; i++ {
		tr.Begin("s", "c", 0).End()
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
}

func TestTracerDeterministicExport(t *testing.T) {
	render := func() string {
		tr := manualTracer()
		root := tr.Begin("tick", "tick", 0)
		win := tr.AsyncBegin("outage", "faults", "nyc", 1, 1)
		fo := tr.Begin("acquire.failover", "zone", root.ID())
		fo.SetSubject("A/z1")
		fo.SetLink(win)
		fo.End()
		tr.AsyncEnd(win, "outage", "faults", "nyc", 3)
		root.End()
		var trace bytes.Buffer
		if err := tr.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return trace.String()
	}
	t1 := render()
	if t1 != render() {
		t.Error("trace export is not deterministic")
	}
	if !json.Valid([]byte(t1)) {
		t.Fatalf("trace not valid JSON: %s", t1)
	}
	if !strings.Contains(t1, `"traceEvents"`) || !strings.Contains(t1, `"ph":"b"`) ||
		!strings.Contains(t1, `"ph":"e"`) || !strings.Contains(t1, `"ph":"X"`) {
		t.Fatalf("trace missing expected phases: %s", t1)
	}
	if !strings.Contains(t1, `"link"`) {
		t.Fatalf("failover link lost in export: %s", t1)
	}
}

func TestTracerAsyncPairsShareID(t *testing.T) {
	tr := manualTracer()
	win := tr.AsyncBegin("outage", "faults", "nyc", 1, 1)
	tr.AsyncEnd(win, "outage", "faults", "nyc", 4)
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != recs[1].ID || recs[0].Phase != PhaseAsyncBegin || recs[1].Phase != PhaseAsyncEnd {
		t.Fatalf("async pair malformed: %+v", recs)
	}
	if recs[0].Name != recs[1].Name || recs[0].Cat != recs[1].Cat {
		t.Fatalf("async pair name/cat mismatch (trace_event pairs by name+cat+id): %+v", recs)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Begin("predict", "zone", 0)
				sp.SetWorker(worker)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("len=%d, want 800", tr.Len())
	}
	seen := map[SpanID]bool{}
	for _, r := range tr.Records() {
		if seen[r.ID] {
			t.Fatalf("duplicate span ID %d", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestTraceRoundTripsByteForByte pins the one trace codec: a trace
// written by WriteTrace, read by ReadTrace and written again by
// WriteTraceEvents keeps every byte. It covers nested and linked
// spans, a zero-length span (which keeps "dur":0) and an async window
// (which has no dur), with the annotations each carries.
func TestTraceRoundTripsByteForByte(t *testing.T) {
	tr := manualTracer()
	root := tr.Begin("tick", "tick", 0)
	root.SetTick(3)
	win := tr.AsyncBegin("outage", "faults", "nyc", 3, 0.5)
	child := tr.Begin("acquire.failover", "zone", root.ID())
	child.SetSubject("A/z1")
	child.SetWorker(2)
	child.SetValue(1.25)
	child.SetLink(win)
	child.End()
	at := time.Unix(0, 0).Add(time.Hour)
	tr.Complete(SpanRec{Name: "phase.reduce", Parent: root.ID(), Tick: 3, Start: at, End: at})
	tr.AsyncEnd(win, "outage", "faults", "nyc", 5)
	root.End()

	var first bytes.Buffer
	if err := tr.WriteTrace(&first); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"dur":0,`, `"ph":"b"`, `"link":`, `"parent":`} {
		if !strings.Contains(first.String(), want) {
			t.Fatalf("trace lacks %s:\n%s", want, first.String())
		}
	}
	doc, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteTraceEvents(&second, doc.TraceEvents); err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Fatalf("round trip changed the trace:\n%s\nwant\n%s", second.String(), first.String())
	}
}
