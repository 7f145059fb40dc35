package daemon

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"mmogdc/internal/ecosystem"
	"mmogdc/internal/obs"
)

// Decision provenance for the service path: when Config.ExplainDepth
// is set, each game owns a DecisionLog of that depth, and GET
// /v1/explain snapshots it. The matcher is shared, so observeOne points
// it at the observing game's log under ecoMu just before the observe
// pass: the log records the game's decisions in place, numbered 1, 2,
// 3… per game. Enabling explain costs one ring of Decisions per game
// and nothing per request. Observations a region circuit breaker
// refuses never reach the matcher; handleObserve synthesizes a
// circuit-open decision into the same log so the refusal is
// explainable too.

// centersIn lists the centers of one failure domain, sorted for a
// deterministic synthesized verdict order.
func (b *breaker) centersIn(region string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name, r := range b.centerRegion {
		if r == region {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// explainCircuitOpen records a synthesized decision for an observation
// the region breaker refused: every center of the gated region gets a
// circuit-open verdict. The matcher never saw the request, so Seq is 0
// and the tick is the one the refused observation would have become —
// the next admission tick, the value enqueue would have returned.
func (d *Daemon) explainCircuitOpen(g *game, region string) {
	if g.explain == nil {
		return
	}
	dec := ecosystem.Decision{
		Tick: int(g.tick.Load()) + 1,
		Tag:  g.spec.Name,
	}
	for _, name := range d.brk.centersIn(region) {
		dec.Candidates = append(dec.Candidates, ecosystem.CandidateVerdict{
			Center:      name,
			Disposition: ecosystem.DispCircuitOpen,
		})
	}
	d.ecoMu.Lock()
	g.explain.Synthesize(dec)
	d.ecoMu.Unlock()
}

// handleExplain serves GET /v1/explain?game=&zone=&tick=: the last-N
// decision records for one game, oldest first. tick filters to one
// provisioning tick; zone filters by the requesting tag (the embedded
// operator tags its requests with the game name, so for the daemon the
// two coincide — the parameter exists for decision streams imported
// from the per-zone simulation).
func (d *Daemon) handleExplain(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
	g := d.gameFor(w, r)
	if g == nil {
		return
	}
	if g.explain == nil {
		d.typedError(w, http.StatusNotFound, "explain_disabled",
			"decision provenance is off (start the daemon with -explain)")
		return
	}
	q := r.URL.Query()
	tickFilter := -1
	if s := q.Get("tick"); s != "" {
		t, err := strconv.Atoi(s)
		if err != nil || t < 0 {
			d.typedError(w, http.StatusBadRequest, "bad_value",
				"tick must be a non-negative integer")
			return
		}
		tickFilter = t
	}
	zone := q.Get("zone")

	d.ecoMu.Lock()
	decisions := g.explain.Snapshot()
	d.ecoMu.Unlock()

	if tickFilter >= 0 || zone != "" {
		kept := decisions[:0]
		for _, dec := range decisions {
			if tickFilter >= 0 && dec.Tick != tickFilter {
				continue
			}
			if zone != "" && dec.Tag != zone {
				continue
			}
			kept = append(kept, dec)
		}
		decisions = kept
	}
	if decisions == nil {
		decisions = []ecosystem.Decision{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{
		"game": g.spec.Name, "depth": d.cfg.ExplainDepth,
		"count": len(decisions), "decisions": decisions,
	})
}
