package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

func testMatcher() *ecosystem.Matcher {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	return ecosystem.NewMatcher([]*datacenter.Center{
		datacenter.NewCenter("dc-a", geo.London, 50, p),
		datacenter.NewCenter("dc-b", geo.Amsterdam, 50, p),
	})
}

// fastHot is a test hot config without the two-minute tick's real-time
// semantics: cadence knobs on, injection off.
func fastHot() HotConfig {
	return HotConfig{TickSeconds: 1, ObserveTimeoutMS: 2000, FaultSeed: 1}
}

func newTestDaemon(t testing.TB, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Games:     []GameSpec{{Name: "g1", Genre: mmog.GenreMMORPG, Origin: geo.London}},
		Predictor: predict.NewLastValue(),
		Matcher:   testMatcher(),
		Hot:       fastHot(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// drain shuts the daemon down, failing the test on any drain error.
func drain(t testing.TB, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func postObserve(t *testing.T, url, game string, values []float64) *http.Response {
	t.Helper()
	body, _ := json.Marshal(ObserveRequest{Game: game, Values: values})
	resp, err := http.Post(url+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var doc map[string]apiError
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("error body not typed JSON: %v", err)
	}
	return doc["error"].Code
}

// waitTicks polls until the named game has observed at least n ticks.
func waitTicks(t *testing.T, d *Daemon, game string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.Ticks(game) < n {
		if time.Now().After(deadline) {
			t.Fatalf("game %q stuck at %d ticks, want %d", game, d.Ticks(game), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestObserveFlow(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for i := 0; i < 5; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{100, 50, 25})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d -> %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", 5)

	// The forecast and lease book are readable over the API.
	resp, err := http.Get(srv.URL + "/v1/forecast")
	if err != nil {
		t.Fatal(err)
	}
	var fc struct {
		Game     string    `json:"game"`
		Ticks    int       `json:"ticks"`
		Zones    int       `json:"zones"`
		Total    float64   `json:"total"`
		Forecast []float64 `json:"forecast"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fc.Game != "g1" || fc.Ticks != 5 || fc.Zones != 3 || fc.Total <= 0 {
		t.Fatalf("forecast = %+v", fc)
	}

	resp, err = http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	var ls struct {
		Count    int     `json:"count"`
		CPUUnits float64 `json:"cpu_units"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ls.Count == 0 || ls.CPUUnits <= 0 {
		t.Fatalf("leases = %+v (the operator should have leased the forecast)", ls)
	}

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
	}
}

func TestTypedAdmissionErrors(t *testing.T) {
	d := newTestDaemon(t, func(c *Config) { c.MaxBodyBytes = 256 })
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Fix the zone count at 2.
	resp := postObserve(t, srv.URL, "g1", []float64{1, 2})
	resp.Body.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed JSON", `{"game": "g1", values`, 400, "malformed_body"},
		{"unknown field", `{"game": "g1", "values": [1], "extra": true}`, 400, "malformed_body"},
		{"unknown game", `{"game": "nope", "values": [1, 2]}`, 404, "unknown_game"},
		{"no zones", `{"game": "g1", "values": []}`, 400, "bad_value"},
		{"negative load", `{"game": "g1", "values": [1, -3]}`, 400, "bad_value"},
		{"zone mismatch", `{"game": "g1", "values": [1, 2, 3]}`, 409, "zone_mismatch"},
		{"oversized body", `{"game": "g1", "values": [` + strings.Repeat("1,", 400) + `1]}`, 413, "oversized_body"},
	}
	for _, tc := range cases {
		resp := post(tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s -> %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if code := decodeError(t, resp); code != tc.code {
			t.Fatalf("%s -> code %q, want %q", tc.name, code, tc.code)
		}
	}

	// Method confusion must not reach the operator.
	resp, err := http.Get(srv.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/observe -> %d, want 405", resp.StatusCode)
	}
}

func TestBackpressureSheds429(t *testing.T) {
	hot := fastHot()
	hot.ObserveDelayMS = 50 // slow observe loop: the queue must back up
	d := newTestDaemon(t, func(c *Config) {
		c.QueueDepth = 2
		c.Hot = hot
	})
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var accepted, shed int
	for i := 0; i < 12; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{10, 20})
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if code := decodeError(t, resp); code != "queue_full" {
				t.Fatalf("429 code %q, want queue_full", code)
			}
			continue // decodeError closed the body
		default:
			t.Fatalf("observe -> %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if shed == 0 {
		t.Fatalf("no 429s despite a full queue (accepted %d)", accepted)
	}
	if accepted == 0 {
		t.Fatal("everything shed — admission is broken, not backpressured")
	}
	// The shed counter is visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`mmogdc_daemon_shed_total{game="g1"} %d`, shed)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	d := newTestDaemon(t, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postObserve(t, srv.URL, "g1", []float64{5, 5})
	resp.Body.Close()
	drain(t, d)

	// readyz flips to 503, healthz stays up, and admission is closed
	// with the typed draining error.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while drained -> %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz while drained -> %d, want 200", resp.StatusCode)
	}
	resp = postObserve(t, srv.URL, "g1", []float64{5, 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("observe while drained -> %d, want 503", resp.StatusCode)
	}
	if code := decodeError(t, resp); code != "draining" {
		t.Fatalf("draining code %q", code)
	}
}

// Goroutine hygiene: a full serve–load–drain cycle must return the
// process to its baseline goroutine count — the daemon leaks nothing.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	d := newTestDaemon(t, nil)
	srv := httptest.NewServer(d.Handler())
	for i := 0; i < 8; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{10, 20})
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", 8)
	drain(t, d)
	srv.CloseClientConnections()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after drain\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
