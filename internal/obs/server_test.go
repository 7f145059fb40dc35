package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServerEndpoints(t *testing.T) {
	o := New()
	o.Registry.Counter("mmogdc_failovers_total", "failovers").Add(2)
	o.Registry.Histogram("mmogdc_tick_duration_seconds", "tick time", TimeBuckets).Observe(0.01)
	o.Recorder.Record(Event{Tick: 3, Kind: EventFailover, Subject: "g/z1"})

	srv, err := Serve("127.0.0.1:0", o.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	for _, want := range []string{
		"mmogdc_failovers_total 2",
		"# TYPE mmogdc_tick_duration_seconds histogram",
		`mmogdc_tick_duration_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/events")
	if code != 200 {
		t.Fatalf("/events -> %d", code)
	}
	var doc struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events not JSON: %v\n%s", err, body)
	}
	if doc.Total != 1 || len(doc.Events) != 1 || doc.Events[0].Kind != EventFailover {
		t.Fatalf("/events doc = %+v", doc)
	}

	// The registry is served once, on /metrics: there is no expvar
	// mirror of it.
	if code, _ := get("/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars -> %d, want 404", code)
	}

	code, body = get("/debug/pprof/goroutine?debug=1")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/goroutine -> %d", code)
	}

	if code, _ := get("/no-such"); code != 404 {
		t.Fatalf("unknown path -> %d, want 404", code)
	}
}

// TestEventsFilters covers the /events query parameters: kind narrows
// to one event kind, since drops events before a tick, and a
// non-integer since is a client error.
func TestEventsFilters(t *testing.T) {
	o := New()
	o.Recorder.Record(Event{Tick: 1, Kind: EventGrant, Subject: "g/z1"})
	o.Recorder.Record(Event{Tick: 5, Kind: EventOutage, Subject: "nyc"})
	o.Recorder.Record(Event{Tick: 9, Kind: EventGrant, Subject: "g/z2"})

	srv, err := Serve("127.0.0.1:0", o.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	fetch := func(path string) (uint64, int, []Event) {
		t.Helper()
		code, body := get(path)
		if code != 200 {
			t.Fatalf("%s -> %d: %s", path, code, body)
		}
		var doc struct {
			Total   uint64  `json:"total"`
			Matched int     `json:"matched"`
			Events  []Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s not JSON: %v\n%s", path, err, body)
		}
		return doc.Total, doc.Matched, doc.Events
	}

	if total, matched, events := fetch("/events?kind=grant"); total != 3 || matched != 2 ||
		len(events) != 2 || events[0].Tick != 1 || events[1].Tick != 9 {
		t.Fatalf("kind filter: total=%d matched=%d events=%+v", total, matched, events)
	}
	if _, matched, events := fetch("/events?since=5"); matched != 2 ||
		events[0].Kind != EventOutage || events[1].Tick != 9 {
		t.Fatalf("since filter: matched=%d events=%+v", matched, events)
	}
	if _, matched, events := fetch("/events?kind=grant&since=2"); matched != 1 ||
		events[0].Tick != 9 {
		t.Fatalf("combined filter: matched=%d events=%+v", matched, events)
	}
	if _, matched, _ := fetch("/events?kind=no-such"); matched != 0 {
		t.Fatalf("unknown kind matched %d events", matched)
	}
	if code, body := get("/events?since=abc"); code != http.StatusBadRequest {
		t.Fatalf("bad since -> %d (%s), want 400", code, body)
	}
}

// The observability server must carry slow-client protections: a
// client that connects and never finishes its request header cannot
// hold a connection (and its goroutine) open indefinitely.
func TestServeHardenedTimeouts(t *testing.T) {
	o := New()
	s, err := Serve("127.0.0.1:0", o.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := s.srv
	if srv.ReadHeaderTimeout != DefaultReadHeaderTimeout ||
		srv.ReadTimeout != DefaultReadTimeout ||
		srv.WriteTimeout != DefaultWriteTimeout ||
		srv.IdleTimeout != DefaultIdleTimeout ||
		srv.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Fatalf("Serve left a timeout unset: %+v", srv)
	}
}

// Functional slowloris check with a shrunken header deadline: the
// server must hang up on a client that stalls mid-header.
func TestSlowClientEvicted(t *testing.T) {
	o := New()
	srv := HardenedServer(o.Handler())
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	srv.ReadTimeout = 50 * time.Millisecond
	s, err := serveWith("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request but never finish the header block.
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		// A 408 response body also proves the eviction; either way the
		// next read must hit EOF.
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("read after eviction: %v", err)
		}
	}
}

// TestEventsCombinedFiltersAfterWrap drives ?kind= and ?since=
// together over a recorder whose ring has wrapped: the filters apply
// to the retained window only, while total/dropped keep reporting the
// full history, so a consumer can tell "no matches" from "matches
// already overwritten".
func TestEventsCombinedFiltersAfterWrap(t *testing.T) {
	o := &Obs{Registry: NewRegistry(), Recorder: NewRecorder(8), Clock: System}
	// 20 events, alternating kinds; the ring keeps ticks 12..19.
	for i := 0; i < 20; i++ {
		kind := EventGrant
		if i%2 == 1 {
			kind = EventRejection
		}
		o.Recorder.Record(Event{Tick: i, Kind: kind, Subject: "g"})
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	fetch := func(path string) (total, dropped uint64, matched int, events []Event) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		var doc struct {
			Total   uint64  `json:"total"`
			Dropped uint64  `json:"dropped"`
			Matched int     `json:"matched"`
			Events  []Event `json:"events"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Total, doc.Dropped, doc.Matched, doc.Events
	}

	// Retained grants are ticks 12, 14, 16, 18; since=15 keeps 16, 18.
	total, dropped, matched, events := fetch("/events?kind=grant&since=15")
	if total != 20 || dropped != 12 {
		t.Fatalf("total=%d dropped=%d, want 20/12", total, dropped)
	}
	if matched != 2 || len(events) != 2 ||
		events[0].Tick != 16 || events[1].Tick != 18 {
		t.Fatalf("combined filter after wrap: matched=%d events=%+v", matched, events)
	}
	for _, e := range events {
		if e.Kind != EventGrant {
			t.Fatalf("kind filter leaked %q", e.Kind)
		}
	}
	// since pointing below the retained window matches everything kept
	// of that kind — overwritten events are reported via dropped, not
	// resurrected.
	if _, _, matched, _ := fetch("/events?kind=rejection&since=0"); matched != 4 {
		t.Fatalf("rejection since=0 matched %d, want 4", matched)
	}
}
