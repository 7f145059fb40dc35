package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
)

type explainDoc struct {
	Game      string               `json:"game"`
	Depth     int                  `json:"depth"`
	Count     int                  `json:"count"`
	Decisions []ecosystem.Decision `json:"decisions"`
}

func getExplain(t *testing.T, url string) (int, explainDoc) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc explainDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("explain body: %v", err)
		}
	}
	return resp.StatusCode, doc
}

func TestExplainEndpoint(t *testing.T) {
	d := newTestDaemon(t, func(c *Config) { c.ExplainDepth = 4 })
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for i := 0; i < 6; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{400 + float64(i*100), 50, 25})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d -> %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", 6)

	code, doc := getExplain(t, srv.URL+"/v1/explain?game=g1")
	if code != http.StatusOK {
		t.Fatalf("explain -> %d", code)
	}
	if doc.Game != "g1" || doc.Depth != 4 {
		t.Fatalf("doc header = %+v, want game g1 depth 4", doc)
	}
	if doc.Count == 0 || doc.Count > 4 || len(doc.Decisions) != doc.Count {
		t.Fatalf("count %d with %d decisions, want 1..4 and equal", doc.Count, len(doc.Decisions))
	}
	for i, dec := range doc.Decisions {
		if dec.Tag != "g1" {
			t.Fatalf("decision %d tag = %q", i, dec.Tag)
		}
		if len(dec.Candidates) == 0 {
			t.Fatalf("decision %d has no candidate verdicts", i)
		}
		if i > 0 && dec.Seq <= doc.Decisions[i-1].Seq {
			t.Fatalf("decisions not oldest-first: seq %d after %d", dec.Seq, doc.Decisions[i-1].Seq)
		}
	}

	// A growing demand curve keeps allocating, so at least one record
	// must carry a grant.
	granted := false
	for _, dec := range doc.Decisions {
		for _, v := range dec.Candidates {
			if v.Disposition == ecosystem.DispGranted || v.Disposition == ecosystem.DispPartialTrimmed {
				granted = true
			}
		}
	}
	if !granted {
		t.Fatal("no granting disposition in any retained decision")
	}

	// Filters: an impossible tick matches nothing; the zone filter
	// keeps the operator's own tag.
	if _, filtered := getExplain(t, srv.URL+"/v1/explain?game=g1&tick=99999"); filtered.Count != 0 {
		t.Fatalf("tick filter kept %d decisions", filtered.Count)
	}
	if _, filtered := getExplain(t, srv.URL+"/v1/explain?game=g1&zone=g1"); filtered.Count != doc.Count {
		t.Fatalf("zone=g1 kept %d of %d", filtered.Count, doc.Count)
	}
	if _, filtered := getExplain(t, srv.URL+"/v1/explain?game=g1&zone=other"); filtered.Count != 0 {
		t.Fatalf("zone filter kept %d decisions", filtered.Count)
	}

	// Bad tick value and unknown game are typed errors.
	resp, err := http.Get(srv.URL + "/v1/explain?game=g1&tick=-3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || decodeError(t, resp) != "bad_value" {
		t.Fatalf("negative tick -> %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/explain?game=nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown game -> %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestExplainDisabled(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/explain?game=g1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || decodeError(t, resp) != "explain_disabled" {
		t.Fatalf("explain with depth 0 -> %d, want 404 explain_disabled", resp.StatusCode)
	}
}

func TestExplainCircuitOpenSynthesis(t *testing.T) {
	hot := fastHot()
	hot.BreakerThreshold = 2
	hot.BreakerCooldown = 100
	d := newTestDaemon(t, func(c *Config) {
		c.ExplainDepth = 8
		c.Hot = hot
	})
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Admit and observe two ticks, then trip the eu circuit directly
	// (both test centers live in it) and push a third observation:
	// admission is refused with 503 and the refusal must still be
	// explainable, at the tick it would have become.
	for i := 0; i < 2; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{100 + float64(i*100), 50, 25})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d -> %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", 2)
	d.brk.record(nil, []string{"dc-a"})
	d.brk.record(nil, []string{"dc-a", "dc-b"})
	resp := postObserve(t, srv.URL, "g1", []float64{300, 50, 25})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("observe with open circuit -> %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	code, doc := getExplain(t, srv.URL+"/v1/explain?game=g1")
	if code != http.StatusOK || doc.Count == 0 {
		t.Fatalf("explain -> %d with %d decisions, want the synthesized record last", code, doc.Count)
	}
	dec := doc.Decisions[doc.Count-1]
	if dec.Seq != 0 {
		t.Fatalf("synthesized decision seq = %d, want 0 (matcher never saw it)", dec.Seq)
	}
	if dec.Tick != 3 {
		t.Fatalf("synthesized decision tick = %d, want 3 (the refused observation's)", dec.Tick)
	}
	if len(dec.Candidates) != 2 {
		t.Fatalf("got %d verdicts, want both region centers: %+v", len(dec.Candidates), dec.Candidates)
	}
	for i, v := range dec.Candidates {
		if v.Disposition != ecosystem.DispCircuitOpen {
			t.Fatalf("verdict %d = %+v, want circuit-open", i, v)
		}
	}
	if dec.Candidates[0].Center != "dc-a" || dec.Candidates[1].Center != "dc-b" {
		t.Fatalf("centers not sorted: %+v", dec.Candidates)
	}
	// The admitted ticks keep their own matcher decisions.
	if _, at2 := getExplain(t, srv.URL+"/v1/explain?game=g1&tick=2"); at2.Count != 1 || at2.Decisions[0].Seq == 0 {
		t.Fatalf("tick 2 has %+v, want only its matcher decision", at2.Decisions)
	}
}

// TestExplainSeqPerGame pins that each game of a multi-game daemon
// numbers its decisions from its own log: /v1/explain and the decision
// events both count 1, 2, 3… per game, even though the games share one
// matcher.
func TestExplainSeqPerGame(t *testing.T) {
	d := newTestDaemon(t, func(c *Config) {
		c.ExplainDepth = 8
		c.Games = append(c.Games, GameSpec{Name: "g2", Genre: mmog.GenreMMORPG, Origin: geo.London})
	})
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// g1 observes a growing curve first, then g2: a counter shared
	// across games would number g2's decisions after g1's.
	for _, game := range []string{"g1", "g2"} {
		for i := 0; i < 4; i++ {
			resp := postObserve(t, srv.URL, game, []float64{400 + float64(i*100), 50, 25})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s observe %d -> %d", game, i, resp.StatusCode)
			}
			resp.Body.Close()
		}
		waitTicks(t, d, game, 4)
	}

	for _, game := range []string{"g1", "g2"} {
		code, doc := getExplain(t, srv.URL+"/v1/explain?game="+game)
		if code != http.StatusOK || doc.Count == 0 {
			t.Fatalf("%s explain -> %d with %d decisions", game, code, doc.Count)
		}
		for i, dec := range doc.Decisions {
			if dec.Tag != game {
				t.Fatalf("%s explain lists decision tagged %q", game, dec.Tag)
			}
			if dec.Seq != uint64(i+1) {
				t.Fatalf("%s decision %d has seq %d, want %d", game, i, dec.Seq, i+1)
			}
		}
		var seqs []float64
		for _, e := range d.obs.Recorder.Events() {
			if e.Kind == obs.EventDecision && e.Subject == game {
				seqs = append(seqs, e.Value)
			}
		}
		if len(seqs) != doc.Count {
			t.Fatalf("%s has %d decision events for %d decisions", game, len(seqs), doc.Count)
		}
		for i, v := range seqs {
			if v != float64(i+1) {
				t.Fatalf("%s decision event %d has value %v, want %d", game, i, v, i+1)
			}
		}
	}
}
