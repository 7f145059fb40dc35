// Package audit reconstructs a Section-V-style provisioning post-
// mortem from a finished run's telemetry artifacts: the flight-recorder
// JSONL event stream (-obs-events), the metrics snapshot
// (-metrics-out), and the Chrome trace_event span trace (-trace-out).
// cmd/mmogaudit is its CLI front end.
//
// The three inputs are complementary views of one run: events carry
// the total-ordered what-happened stream (every event, even ones the
// in-memory ring overwrote), the metrics document carries the run's
// aggregate truth (Result-derived counts the audit cross-checks the
// events against), and the trace carries timing — phase breakdowns and
// failover/retry latency come from span durations.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mmogdc/internal/core"
	"mmogdc/internal/obs"
)

// RecorderStats is the flight recorder's loss accounting as written
// into the metrics document.
type RecorderStats struct {
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
	SinkErrs uint64 `json:"sink_errs"`
}

// MetricsDoc is the -metrics-out document: the full registry snapshot
// plus the run's headline results. BuildMetricsDoc writes it,
// LoadMetrics reads it back.
type MetricsDoc struct {
	Metrics    map[string]any   `json:"metrics"`
	Resilience *core.Resilience `json:"resilience"`
	Ticks      int              `json:"ticks"`
	Events     int              `json:"events"`
	Unmet      int              `json:"unmet"`
	Recorder   RecorderStats    `json:"recorder"`
}

// BuildMetricsDoc assembles the metrics document for one finished run —
// the single definition cmd/mmogsim serializes and this package parses,
// so writer and reader cannot drift apart. It syncs the recorder-loss
// gauges first, so the embedded snapshot carries them too.
func BuildMetricsDoc(telemetry *obs.Obs, res *core.Result) *MetricsDoc {
	telemetry.SyncRecorderGauges()
	rec := telemetry.Rec()
	return &MetricsDoc{
		Metrics:    telemetry.Reg().Snapshot(),
		Resilience: res.Resilience,
		Ticks:      res.Ticks,
		Events:     res.Events,
		Unmet:      res.Unmet,
		Recorder: RecorderStats{
			Total:    rec.Total(),
			Retained: rec.Len(),
			Dropped:  rec.Dropped(),
			SinkErrs: rec.SinkErrs(),
		},
	}
}

// LoadEvents parses a flight-recorder JSONL stream (one obs.Event per
// line, as written by Recorder.SetSink). Blank lines are skipped; a
// malformed line fails with its line number.
func LoadEvents(r io.Reader) ([]obs.Event, error) {
	var out []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("audit: events line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit: events: %w", err)
	}
	return out, nil
}

// LoadMetrics parses a -metrics-out document.
func LoadMetrics(r io.Reader) (*MetricsDoc, error) {
	var doc MetricsDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("audit: metrics: %w", err)
	}
	return &doc, nil
}
