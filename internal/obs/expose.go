package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders the registry: the Prometheus text exposition
// format served on /metrics, and a JSON-friendly snapshot for
// machine-readable run summaries (-metrics-out).
// Both renderings are deterministic — families sorted by name, series
// by canonical label key — so outputs are diffable across runs.

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusText renders the registry to a string (tests, summaries).
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns the family's series in canonical key order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.Unlock()
	return out
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, s := range f.sortedSeries() {
		var err error
		switch f.kind {
		case counterKind:
			_, err = fmt.Fprintf(w, "%s %d\n", seriesID(f.name, s.labels), s.counter.Value())
		case gaugeKind:
			_, err = fmt.Fprintf(w, "%s %s\n", seriesID(f.name, s.labels), formatFloat(s.gauge.Value()))
		case histogramKind:
			err = s.histogram.write(w, f.name, s.labels)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// write renders one histogram series: cumulative le buckets (ending in
// +Inf), then _sum and _count.
func (h *Histogram) write(w io.Writer, name string, labels []Label) error {
	counts := h.snapshotCounts()
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s %d\n",
			seriesID(name+"_bucket", append(append([]Label(nil), labels...), Label{"le", le})), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesID(name+"_sum", labels), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesID(name+"_count", labels), h.Count())
	return err
}

// seriesID renders name{k1="v1",k2="v2"} (no braces when unlabeled).
// Labels are already in canonical (sorted) order except a trailing
// "le", which by construction sorts into place only coincidentally —
// it is appended last, matching Prometheus convention.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline only (quotes
// are legal in help text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip decimal, with NaN/+Inf/-Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonNumber renders a float as a JSON-encodable value: numbers stay
// numbers, non-finite values (which encoding/json rejects) become
// their exposition-format strings.
func jsonNumber(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return formatFloat(v)
	}
	return v
}

// Snapshot returns the registry as one JSON-encodable document: series
// id → value (counters as integers, gauges as numbers, histograms as
// {count, sum, buckets} with cumulative le-keyed buckets). Map keys
// make encoding/json sort the output, so the document is
// deterministic. A nil registry returns an empty map.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			id := seriesID(f.name, s.labels)
			switch f.kind {
			case counterKind:
				out[id] = s.counter.Value()
			case gaugeKind:
				out[id] = jsonNumber(s.gauge.Value())
			case histogramKind:
				h := s.histogram
				buckets := map[string]int64{}
				cum := int64(0)
				for i, c := range h.snapshotCounts() {
					cum += c
					le := "+Inf"
					if i < len(h.bounds) {
						le = formatFloat(h.bounds[i])
					}
					buckets[le] = cum
				}
				out[id] = map[string]any{
					"count":   h.Count(),
					"sum":     jsonNumber(h.Sum()),
					"buckets": buckets,
				}
			}
		}
	}
	return out
}
