package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

// v1Paths are the /v1 endpoints Handler routes.
var v1Paths = map[string]bool{
	"/v1/observe": true, "/v1/forecast": true, "/v1/leases": true,
	"/v1/explain": true, "/v1/config": true,
}

// v1Statuses are the statuses a /v1 endpoint answers with.
var v1Statuses = map[int]bool{
	http.StatusOK: true, http.StatusAccepted: true, http.StatusBadRequest: true,
	http.StatusNotFound: true, http.StatusMethodNotAllowed: true,
	http.StatusConflict: true, http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
}

// v1Requests sums the request histogram's count over path's series.
func (d *Daemon) v1Requests(path string) int64 {
	d.seriesMu.Lock()
	defer d.seriesMu.Unlock()
	var n int64
	for k, h := range d.mRequests {
		if k.path == path {
			n += h.Count()
		}
	}
	return n
}

// FuzzDaemonRequest sends any method, /v1 path, raw query, traceparent
// header and body through the handler of one daemon per process: two
// games, tracing and explain on, and a region breaker armed under
// injected grant rejections, so it trips. Every answer must carry a
// status the API documents (409 among them: the first accepted
// observation fixes a game's zone count), every non-2xx answer the
// typed error body, and the request histogram must count the request
// exactly once: under its endpoint, or under one label for every path
// that names none. Paths outside /v1 belong to the observability
// surface and are not sent. Neither is POST /v1/config:
// FuzzConfigPost covers that body, and a fuzzed observe_delay_ms could
// park the shared daemon's workers for days. The daemon's state
// carries over from one input to the next, so an input's coverage
// depends on the inputs before it; scripts/fuzz.sh caps minimization
// for that reason.
func FuzzDaemonRequest(f *testing.F) {
	const limit = 1024
	o := obs.New()
	o.EnableTracing()
	d, err := New(Config{
		Games: []GameSpec{
			{Name: "g1", Genre: mmog.GenreMMORPG, Origin: geo.London},
			{Name: "g2", Genre: mmog.GenreRPG, Origin: geo.Amsterdam},
		},
		Predictor:    predict.NewLastValue(),
		Matcher:      testMatcher(),
		Obs:          o,
		MaxBodyBytes: limit,
		ExplainDepth: 16,
		Hot: HotConfig{TickSeconds: 1, ObserveTimeoutMS: 2000, FaultSeed: 1,
			FaultRejectProb: 0.5, BreakerThreshold: 2, BreakerCooldown: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { drain(f, d) })
	h := d.Handler()

	valid := `{"game":"g1","values":[800,600,400]}`
	pastLimit := valid + strings.Repeat(" ", limit+1-len(valid))
	for _, s := range []struct{ method, path, query, traceparent, body string }{
		{"POST", "/v1/observe", "", "", valid},
		{"POST", "/v1/observe", "", "00-0000000000000000000000000000BEEF-000000001234ABCD-01", valid},
		{"POST", "/v1/observe", "", "00-00000000000000000000000000000000-0000000000000000-01", valid},
		{"POST", "/v1/observe", "", "", pastLimit},
		{"PUT", "/v1/observe", "", "", valid},
		{"GET", "/v1/explain", "game=g1&tick=-1", "", ""},
		{"GET", "/v1/explain", "game=g2&tick=99999999999999999999", "", ""},
		{"GET", "/v1/forecast", "game=unprovisioned", "", ""},
		{"GET", "/v1/leases", "game=g1", "", ""},
		{"GET", "/v1/config", "", "", ""},
		{"GET", "/v1", "", "", ""},
		{"GET", "/v1/nope", "", "", ""},
		{"POST", "/v1/observe/", "", "", valid},
		{"POST", "/v1//observe", "", "", valid},
		{"GET", "/v1/./config", "", "", ""},
		{"GET", "/v1/../v1/config", "", "", ""},
	} {
		f.Add(s.method, s.path, s.query, s.traceparent, s.body)
	}
	f.Fuzz(func(t *testing.T, method, path, query, traceparent, body string) {
		if path != "/v1" && !strings.HasPrefix(path, "/v1/") ||
			method == http.MethodPost && path == "/v1/config" {
			return
		}
		label := path
		if !v1Paths[path] {
			label = unknownEndpoint
		}
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Method = method
		req.URL = &url.URL{Path: path, RawQuery: query}
		req.RequestURI = req.URL.RequestURI()
		req.Header.Set("traceparent", traceparent)
		req.Body = io.NopCloser(strings.NewReader(body))
		req.ContentLength = int64(len(body))
		before := d.v1Requests(label)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		// Let an admitted sample's observe pass finish inside this input.
		for _, g := range d.games {
			for start := time.Now(); g.mLoop.Count() < g.mIngest.Value(); runtime.Gosched() {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%s %s?%s: game %q's observe pass hung", method, path, query, g.spec.Name)
				}
			}
		}

		if !v1Statuses[w.Code] {
			t.Fatalf("%s %s?%s -> %d %q", method, path, query, w.Code, w.Body.String())
		}
		if n := d.v1Requests(label) - before; n != 1 {
			t.Fatalf("%s %s?%s counted %d requests, want 1", method, path, query, n)
		}
		if w.Code < 300 {
			return
		}
		var doc struct {
			Error *struct {
				Code    *string `json:"code"`
				Message *string `json:"message"`
			} `json:"error"`
		}
		dec := json.NewDecoder(w.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil || doc.Error == nil ||
			doc.Error.Code == nil || *doc.Error.Code == "" || doc.Error.Message == nil {
			t.Fatalf("%s %s?%s -> %d with an untyped body (%v): %q",
				method, path, query, w.Code, err, w.Body.String())
		}
	})
}

// TestUnknownV1Path: a /v1 path that names no endpoint answers a typed
// 404, and the request histogram counts it under one label, so probing
// paths adds no series.
func TestUnknownV1Path(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	h := d.Handler()
	for _, p := range []string{"/v1", "/v1/nope", "/v1/observe/", "/v1/nope"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, p, nil))
		var doc struct{ Error apiError }
		if err := json.NewDecoder(w.Body).Decode(&doc); err != nil || w.Code != http.StatusNotFound || doc.Error.Code != "unknown_endpoint" {
			t.Fatalf("GET %s -> %d, code %q (%v)", p, w.Code, doc.Error.Code, err)
		}
	}
	if n := d.v1Requests(unknownEndpoint); n != 4 {
		t.Fatalf("counted %d unknown-endpoint requests, want 4", n)
	}
	d.seriesMu.Lock()
	defer d.seriesMu.Unlock()
	for k := range d.mRequests {
		if k.path != unknownEndpoint {
			t.Fatalf("a series for path %q", k.path)
		}
	}
}

// TestUncleanV1Path: a /v1 path ServeMux would redirect to its cleaned
// form (an empty, "." or ".." segment) answers the typed 404 instead of
// a bare 301 a client may replay as a GET, and the request histogram
// counts it under the unknown-endpoint label.
func TestUncleanV1Path(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	h := d.Handler()
	for _, r := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1//observe", strings.NewReader(`{"game":"g","values":[1]}`)),
		httptest.NewRequest(http.MethodGet, "/v1/./config", nil),
		httptest.NewRequest(http.MethodGet, "/v1/../v1/config", nil),
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var doc struct{ Error apiError }
		if err := json.NewDecoder(w.Body).Decode(&doc); err != nil || w.Code != http.StatusNotFound || doc.Error.Code != "unknown_endpoint" {
			t.Fatalf("%s %s -> %d, code %q, Location %q (%v)", r.Method, r.URL.Path, w.Code, doc.Error.Code, w.Header().Get("Location"), err)
		}
	}
	if n := d.v1Requests(unknownEndpoint); n != 3 {
		t.Fatalf("counted %d unknown-endpoint requests, want 3", n)
	}
}
