package audit

import (
	"encoding/json"
	"fmt"
	"io"
)

// LoadQuantiles is a Meterstick-style tail-latency summary in
// milliseconds.
type LoadQuantiles struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// StatusQuantiles is one admission outcome's share of the round trips
// and its own latency tail — a 429 resolves much faster than an
// accepted observe, so the blended RTT quantiles understate the
// accepted path under shedding; this breakdown keeps them honest.
type StatusQuantiles struct {
	Count int `json:"count"`
	LoadQuantiles
}

// LoadReport is cmd/mmogload's machine-readable run summary: how the
// daemon's admission behaved under the generated load (accepted vs
// shed vs rejected) and the observe-loop round-trip latency tail —
// the performance-variability view Meterstick takes of game hosting.
// mmogaudit ingests it with -load and folds it into the audit.
type LoadReport struct {
	Game            string        `json:"game"`
	Samples         int           `json:"samples"`
	Accepted        int           `json:"accepted"`
	Shed            int           `json:"shed"`
	Rejected        int           `json:"rejected"`
	DurationSeconds float64       `json:"duration_seconds"`
	AttemptedHz     float64       `json:"attempted_hz"`
	RTT             LoadQuantiles `json:"rtt"`
	// Retries counts re-sent requests after transient failures
	// (transport errors and 503s). A retried sample still resolves to
	// exactly one of accepted/shed/rejected, so the accounting check
	// stays exact.
	Retries int `json:"retries,omitempty"`
	// RTTByStatus splits the round-trip tail by admission outcome,
	// keyed "accepted" / "shed" / "rejected". Optional: older reports
	// omit it, and the per-status counts must sum to Samples when
	// present (checked by AttachLoad).
	RTTByStatus map[string]StatusQuantiles `json:"rtt_by_status,omitempty"`
}

// LoadLoadReport parses a cmd/mmogload -o document.
func LoadLoadReport(r io.Reader) (*LoadReport, error) {
	var ld LoadReport
	if err := json.NewDecoder(r).Decode(&ld); err != nil {
		return nil, fmt.Errorf("audit: load report: %w", err)
	}
	return &ld, nil
}

// AttachLoad folds a load-generator report into the audit: the
// Meterstick-style section renders, and the admission accounting is
// consistency-checked (every sent sample must be accounted for as
// accepted, shed, or rejected).
func (rp *Report) AttachLoad(ld *LoadReport) {
	rp.Load = ld
	rp.Checks = append(rp.Checks,
		check("load samples all accounted (accepted+shed+rejected)",
			fmt.Sprint(ld.Samples),
			fmt.Sprint(ld.Accepted+ld.Shed+ld.Rejected)))
	if len(ld.RTTByStatus) > 0 {
		sum := 0
		for _, q := range ld.RTTByStatus {
			sum += q.Count
		}
		rp.Checks = append(rp.Checks,
			check("per-status RTT counts sum to samples",
				fmt.Sprint(ld.Samples), fmt.Sprint(sum)))
	}
}
