package audit

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// -update regenerates the golden audit report:
//
//	go test ./internal/audit -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden audit report")

// auditConfig is a chaos-grade scenario exercising every event kind
// the audit classifies: scheduled outages, stochastic faults (full and
// partial outages, rejections with retries, partial grants, monitoring
// dropouts), and same-tick failovers. Workers must stay 1 and the
// bundle's clock a ManualClock so the trace — and therefore the
// rendered report — is byte-deterministic.
func auditConfig(o *obs.Obs) core.Config {
	mkDS := func(seed uint64) *trace.Dataset {
		return trace.Generate(trace.Config{Seed: seed, Days: 1, Regions: []trace.Region{
			{ID: 0, Name: "Europe", Location: geo.London, Groups: 6},
			{ID: 1, Name: "US East Coast", Location: geo.NewYork, UTCOffsetHours: -5, Groups: 4},
		}})
	}
	gA := mmog.NewGame("A", mmog.GenreMMORPG)
	gB := mmog.NewGame("B", mmog.GenreRPG)
	gB.Update = mmog.UpdateLinear

	var bulk datacenter.Vector
	bulk[datacenter.CPU] = 0.25
	policy := datacenter.HostingPolicy{Name: "fine", Bulk: bulk, TimeBulk: time.Hour}
	centers := []*datacenter.Center{
		datacenter.NewCenter("london", geo.London, 40, policy),
		datacenter.NewCenter("nyc", geo.NewYork, 30, policy),
	}

	return core.Config{
		Workers:      1,
		Centers:      centers,
		SafetyMargin: 0.1,
		Faults: &faults.Config{
			ScheduledOutages: []faults.CenterOutage{
				{Center: "nyc", Start: 0, Duration: 12},
				{Center: "london", Start: 300, Duration: 40},
			},
			Seed:             99,
			MTBFTicks:        150,
			MTTRTicks:        25,
			DegradedShare:    0.5,
			RejectProb:       0.05,
			PartialGrantProb: 0.05,
			DropoutProb:      0.05,
		},
		Workloads: []core.Workload{
			{Game: gA, Dataset: mkDS(17), Predictor: predict.NewMovingAverage(6)},
			{Game: gB, Dataset: mkDS(23), Predictor: predict.NewMovingAverage(6)},
		},
		Obs: o,
	}
}

// runArtifacts executes the scenario once and returns the three audit
// inputs exactly as a CLI run would produce them: the JSONL event
// stream, the metrics document bytes, and the Chrome trace bytes.
func runArtifacts(t *testing.T) (eventsJSONL, metricsJSON, traceJSON []byte, res *core.Result) {
	t.Helper()
	o := obs.New()
	o.Clock = obs.NewManualClock(time.Unix(0, 0), time.Millisecond)
	// Keep every event: the census-vs-Recorder.Total check needs the
	// sink and the ring to agree on the whole story.
	o.Recorder = obs.NewRecorder(1 << 17)
	var sink bytes.Buffer
	o.Recorder.SetSink(&sink)
	o.EnableTracing()

	res, err := core.Run(auditConfig(o))
	if err != nil {
		t.Fatal(err)
	}

	metricsJSON, err = json.MarshalIndent(BuildMetricsDoc(o, res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := o.Tracer.WriteTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), metricsJSON, traceBuf.Bytes(), res
}

// TestAuditGolden pins the full toolchain end to end: simulate with
// deterministic telemetry, round-trip all three artifacts through the
// loaders, and compare the rendered audit byte-for-byte. The embedded
// consistency checks cross-verify the event stream against the
// Result-derived metrics document.
func TestAuditGolden(t *testing.T) {
	eventsJSONL, metricsJSON, traceJSON, res := runArtifacts(t)

	events, err := LoadEvents(bytes.NewReader(eventsJSONL))
	if err != nil {
		t.Fatal(err)
	}
	md, err := LoadMetrics(bytes.NewReader(metricsJSON))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(bytes.NewReader(traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	rp := Analyze(events, md, tr)

	// The breach episodes must replay exactly the Result's disruptive
	// ticks, and the stream must carry every recorded event.
	if rp.BreachTicks != res.Events {
		t.Errorf("breach ticks = %d, want Result.Events = %d", rp.BreachTicks, res.Events)
	}
	if uint64(rp.EventTotal) != md.Recorder.Total {
		t.Errorf("event stream length = %d, want Recorder.Total = %d", rp.EventTotal, md.Recorder.Total)
	}
	for _, c := range rp.Checks {
		if !c.OK {
			t.Errorf("consistency check %q failed: want %s, got %s", c.Name, c.Want, c.Got)
		}
	}
	if res.Events == 0 || res.Resilience.Failovers == 0 || res.Resilience.Rejections == 0 {
		t.Fatalf("degenerate scenario — audit exercises nothing: events=%d resilience=%+v",
			res.Events, res.Resilience)
	}
	if rp.FailoverLatency.Count == 0 {
		t.Error("no acquire.failover spans in the trace")
	}

	var got bytes.Buffer
	if err := rp.Render(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "audit.md")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("audit report drifted from golden (regenerate deliberately with -update)\n--- got ---\n%s", got.String())
	}
}

// TestAuditDeterministic runs the toolchain twice and requires byte-
// identical artifacts and report — the property the golden file rests
// on.
func TestAuditDeterministic(t *testing.T) {
	e1, m1, t1, _ := runArtifacts(t)
	e2, m2, t2, _ := runArtifacts(t)
	if !bytes.Equal(e1, e2) {
		t.Error("event streams differ across identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics documents differ across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("traces differ across identical runs")
	}
}

// TestTraceIsValidChromeJSON validates the exported trace against the
// trace_event schema essentials: one JSON document with a traceEvents
// array whose entries carry a known ph, and b/e async records that
// pair up by id.
func TestTraceIsValidChromeJSON(t *testing.T) {
	_, _, traceJSON, _ := runArtifacts(t)
	if !json.Valid(traceJSON) {
		t.Fatal("trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	asyncDepth := map[string]int{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("event %d: complete span without dur: %v", i, ev)
			}
		case "b":
			id, _ := ev["id"].(string)
			asyncDepth[id]++
		case "e":
			id, _ := ev["id"].(string)
			asyncDepth[id]--
			if asyncDepth[id] < 0 {
				t.Fatalf("event %d: async end before begin for id %s", i, id)
			}
		default:
			t.Fatalf("event %d: unexpected ph %q", i, ph)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d: missing ts: %v", i, ev)
		}
	}
	for id, d := range asyncDepth {
		if d != 0 {
			// A window still open at run end is legitimate (the center
			// never recovered); a negative depth was caught above.
			if d < 0 {
				t.Errorf("async id %s closed more than it opened", id)
			}
		}
	}
}
