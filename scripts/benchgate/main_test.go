package main

import (
	"strings"
	"testing"
)

// row builds a snapshot entry.
func row(ns float64, bytes, allocs int64) result {
	return result{NsPerOp: ns, BytesPerOp: &bytes, AllocsPerOp: &allocs}
}

// baseline is a snapshot with the reference row, one row gated on
// ns/op and one too short to be.
func baseline() map[string]result {
	return map[string]result{
		reference:             row(200e3, 0, 0),
		"BenchmarkCoreRun":    row(24e6, 1_500_000, 12_800),
		"BenchmarkPredictOne": row(130, 0, 0),
	}
}

// scaled returns s with every ns/op multiplied by f.
func scaled(s map[string]result, f float64) map[string]result {
	out := make(map[string]result, len(s))
	for name, r := range s {
		r.NsPerOp *= f
		out[name] = r
	}
	return out
}

var defaults = gate{tol: 0.20, nsTol: 1.0, minNs: 1e6}

// failsOn reports whether fails holds a message naming name.
func failsOn(fails []string, name string) bool {
	for _, f := range fails {
		if strings.HasPrefix(f, name+":") {
			return true
		}
	}
	return false
}

func TestUniformlySlowerHostPasses(t *testing.T) {
	for _, f := range []float64{2.5, 0.4} {
		if fails := defaults.compare(baseline(), scaled(baseline(), f)); len(fails) > 0 {
			t.Errorf("every row %vx: %v", f, fails)
		}
	}
}

func TestRowSlowerThanReferenceFails(t *testing.T) {
	cur := baseline()
	r := cur["BenchmarkCoreRun"]
	r.NsPerOp *= 2.5
	cur["BenchmarkCoreRun"] = r
	if fails := defaults.compare(baseline(), cur); !failsOn(fails, "BenchmarkCoreRun") || len(fails) != 1 {
		t.Errorf("one row 2.5x above its ratio: %v", fails)
	}
	// The same row on a host twice as fast, with the reference, is 1.25x
	// its ratio: within the band.
	cur = scaled(cur, 0.5)
	cur["BenchmarkCoreRun"] = row(24e6*1.25*0.5, 1_500_000, 12_800)
	if fails := defaults.compare(baseline(), cur); len(fails) > 0 {
		t.Errorf("one row 1.25x above its ratio: %v", fails)
	}
	// A short row is not gated on ns/op, nor is the reference row.
	cur = baseline()
	cur["BenchmarkPredictOne"] = row(130*10, 0, 0)
	cur[reference] = row(200e3*0.3, 0, 0)
	if fails := defaults.compare(baseline(), cur); failsOn(fails, "BenchmarkPredictOne") || failsOn(fails, reference) {
		t.Errorf("ungated rows failed: %v", fails)
	}
}

func TestMissingReferenceFails(t *testing.T) {
	for _, side := range []string{"baseline", "current"} {
		base, cur := baseline(), baseline()
		if side == "baseline" {
			delete(base, reference)
		} else {
			delete(cur, reference)
		}
		if fails := defaults.compare(base, cur); !failsOn(fails, reference) {
			t.Errorf("no reference row in the %s: %v", side, fails)
		}
	}
}

func TestAllocAndByteGates(t *testing.T) {
	cases := []struct {
		name          string
		bytes, allocs int64
		fail          bool
	}{
		{"unchanged", 1_500_000, 12_800, false},
		{"allocs +15%", 1_500_000, 14_720, false},
		{"allocs +25%", 1_500_000, 16_000, true},
		{"bytes +15%", 1_725_000, 12_800, false},
		{"bytes +25%", 1_875_000, 12_800, true},
		{"fewer of both", 1_000_000, 10_000, false},
	}
	for _, c := range cases {
		cur := scaled(baseline(), 3) // host speed does not matter
		cur["BenchmarkCoreRun"] = row(3*24e6, c.bytes, c.allocs)
		if got := failsOn(defaults.compare(baseline(), cur), "BenchmarkCoreRun"); got != c.fail {
			t.Errorf("%s: failed %v, want %v", c.name, got, c.fail)
		}
	}
	// The absolute slack keeps tiny counts from flaking.
	cur := baseline()
	cur["BenchmarkPredictOne"] = row(130, byteSlack, allocSlack)
	if fails := defaults.compare(baseline(), cur); len(fails) > 0 {
		t.Errorf("growth within the slack: %v", fails)
	}
}

func TestMissingRowFails(t *testing.T) {
	cur := baseline()
	delete(cur, "BenchmarkPredictOne")
	if fails := defaults.compare(baseline(), cur); !failsOn(fails, "BenchmarkPredictOne") {
		t.Errorf("a row missing from the current run: %v", fails)
	}
}
