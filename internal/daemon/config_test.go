package daemon

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mmogdc/internal/slo"
)

// TestHotConfigValidateDurations pins the duration knobs to values a
// time.Duration represents: a tick that truncates to 0 or overflows,
// or a millisecond count that wraps, is rejected; everything the
// defaults, tests, and smokes use stays valid.
func TestHotConfigValidateDurations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*HotConfig)
		valid bool
	}{
		{"default", func(*HotConfig) {}, true},
		{"test tick 1s", func(h *HotConfig) { *h = fastHot() }, true},
		{"tick 1us", func(h *HotConfig) { h.TickSeconds = 1e-6 }, true},
		{"tick 9e9 s", func(h *HotConfig) { h.TickSeconds = 9e9 }, true},
		{"tick 1e-12 truncates to 0", func(h *HotConfig) { h.TickSeconds = 1e-12 }, false},
		{"tick 1e10 overflows", func(h *HotConfig) { h.TickSeconds = 1e10 }, false},
		{"tick 0", func(h *HotConfig) { h.TickSeconds = 0 }, false},
		{"tick negative", func(h *HotConfig) { h.TickSeconds = -5 }, false},
		{"tick NaN", func(h *HotConfig) { h.TickSeconds = math.NaN() }, false},
		{"tick +Inf", func(h *HotConfig) { h.TickSeconds = math.Inf(1) }, false},
		{"timeout 0 disables", func(h *HotConfig) { h.ObserveTimeoutMS = 0 }, true},
		{"timeout at the limit", func(h *HotConfig) { h.ObserveTimeoutMS = int(maxMS) }, true},
		{"timeout past the limit", func(h *HotConfig) { h.ObserveTimeoutMS = int(maxMS) + 1 }, false},
		{"timeout 1e13 goes negative", func(h *HotConfig) { h.ObserveTimeoutMS = 10000000000000 }, false},
		{"timeout 2^62 wraps to 0", func(h *HotConfig) { h.ObserveTimeoutMS = 1 << 62 }, false},
		{"timeout negative", func(h *HotConfig) { h.ObserveTimeoutMS = -1 }, false},
		{"delay 200ms", func(h *HotConfig) { h.ObserveDelayMS = 200 }, true},
		{"delay 2^62 wraps to 0", func(h *HotConfig) { h.ObserveDelayMS = 1 << 62 }, false},
		{"delay negative", func(h *HotConfig) { h.ObserveDelayMS = -1 }, false},
		{"reject 1", func(h *HotConfig) { h.FaultRejectProb = 1 }, true},
		{"reject NaN", func(h *HotConfig) { h.FaultRejectProb = math.NaN() }, false},
		{"reject +Inf", func(h *HotConfig) { h.FaultRejectProb = math.Inf(1) }, false},
		{"reject -Inf", func(h *HotConfig) { h.FaultRejectProb = math.Inf(-1) }, false},
		{"partial NaN", func(h *HotConfig) { h.FaultPartialProb = math.NaN() }, false},
		{"partial +Inf", func(h *HotConfig) { h.FaultPartialProb = math.Inf(1) }, false},
		{"partial -Inf", func(h *HotConfig) { h.FaultPartialProb = math.Inf(-1) }, false},
		{"dropout NaN", func(h *HotConfig) { h.FaultDropoutProb = math.NaN() }, false},
		{"dropout +Inf", func(h *HotConfig) { h.FaultDropoutProb = math.Inf(1) }, false},
		{"dropout -Inf", func(h *HotConfig) { h.FaultDropoutProb = math.Inf(-1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := DefaultHot()
			tc.edit(&h)
			err := h.Validate()
			if (err == nil) != tc.valid {
				t.Fatalf("Validate(%+v) = %v, want valid=%v", h, err, tc.valid)
			}
			if err == nil && (h.Tick() <= 0 || h.ObserveTimeout() < 0 || h.ObserveDelay() < 0) {
				t.Fatalf("accepted config has tick %v, timeout %v, delay %v",
					h.Tick(), h.ObserveTimeout(), h.ObserveDelay())
			}
		})
	}
}

// FuzzConfigPost throws arbitrary bodies at POST /v1/config, on top of
// an active config carrying an SLO rule. Every body must get 200 or a
// typed 4xx, never a 5xx or a panic. A rejected body must leave the
// active config as it was; an accepted one must have a positive tick
// and come back unchanged from GET → POST → GET. The seed corpus
// (testdata/fuzz/FuzzConfigPost) holds durations that would truncate
// or wrap a time.Duration.
func FuzzConfigPost(f *testing.F) {
	base := fastHot()
	base.SLORules = []slo.RuleConfig{breachRule()}
	d := newTestDaemon(f, func(c *Config) { c.Hot = base })
	defer drain(f, d)
	h := d.Handler()
	do := func(method, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/config", strings.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := d.Reload(base); err != nil {
			t.Fatal(err)
		}
		before := do(http.MethodGet, "").Body.String()
		rec := do(http.MethodPost, string(body))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			var doc map[string]apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc["error"].Code == "" {
				t.Fatalf("%d without a typed error body: %q", rec.Code, rec.Body.String())
			}
			if after := do(http.MethodGet, "").Body.String(); after != before {
				t.Fatalf("rejected POST changed the active config:\n%s%s", before, after)
			}
			return
		default:
			t.Fatalf("POST -> %d: %s", rec.Code, rec.Body.String())
		}

		accepted := d.Hot()
		if accepted.Tick() <= 0 {
			t.Fatalf("accepted config has tick %v", accepted.Tick())
		}
		doc := do(http.MethodGet, "").Body.String()
		if rec := do(http.MethodPost, doc); rec.Code != http.StatusOK {
			t.Fatalf("round-trip POST -> %d: %s", rec.Code, rec.Body.String())
		}
		if !reflect.DeepEqual(d.Hot(), accepted) {
			t.Fatalf("round trip changed the active config:\n%+v\n%+v", d.Hot(), accepted)
		}
		if again := do(http.MethodGet, "").Body.String(); again != doc {
			t.Fatalf("GET -> POST -> GET changed the config:\n%s%s", doc, again)
		}
	})
}
