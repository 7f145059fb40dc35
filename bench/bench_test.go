package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale shrinks every workload: a one-day sim with one rep, and the
// daemon for one second at 200 samples/s.
var smokeScale = scale{simDays: 1, simTraces: 1, setups: 1, minReps: 1, daemonRate: 200, inprocSamples: 100}

// TestSmoke runs every workload end to end and traced at smoke scale:
// each run must pass its own checks and report exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mmogd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	work := t.TempDir()
	for _, w := range workloads {
		// Zero seconds leaves a sim run at its minimum of one rep.
		seconds := 0
		if strings.HasPrefix(w.name, "daemon-") {
			seconds = 1
		}
		for _, traced := range []bool{false, true} {
			r := &run{
				workload: w.name, seed: 7, seconds: seconds, trace: traced, scale: smokeScale,
				root: root, work: work, out: t.TempDir(),
			}
			if err := r.execute(); err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !r.res.Correct || r.res.Attempted < 1 || r.res.Failed != 0 {
				t.Errorf("%s (traced %v): correct %v, %d attempted, %d failed",
					w.name, traced, r.res.Correct, r.res.Attempted, r.res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(r.res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d",
					w.name, traced, len(r.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s not reported", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): %s unit %q, BENCHMARK.json %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
