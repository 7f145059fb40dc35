// Command benchgate compares two benchjson snapshots (see
// scripts/benchjson) and exits non-zero when the current run regresses
// past a tolerance band against the committed baseline. It is the
// gating half of `make bench-json`: benchjson produces the snapshot,
// benchgate decides whether it is acceptable.
//
//	benchgate [-tol 0.20] [-nstol 1.0] [-minns 1e6] baseline.json current.json
//
// Three regression classes are gated independently:
//
//   - allocs/op and B/op: both are near-deterministic for a fixed
//     code path, so any growth beyond -tol (plus a small absolute
//     slack for tiny counts) is a real regression — these are the
//     primary gates protecting the allocation-free hot path, and
//     they are immune to machine load.
//
//   - ns/op: wall-clock from the few-iteration CI snapshot is load
//     noise on a busy box (a run right after the race suite has been
//     observed 47% slow), so timing only fails past a wide -nstol
//     band (default 2x — a tripwire for algorithmic blowups, not a
//     perf meter), and only for benchmarks whose baseline is at
//     least -minns (default 1ms) where an iteration integrates
//     enough work to be meaningful. A snapshot recorded on a slower
//     or faster host moves every row alike, so each row's ns/op is
//     gated as its ratio to the reference row (BenchmarkReferenceKernel,
//     a workload that calls no mmogdc code) of the same snapshot; the
//     reference row itself is not gated, and a snapshot without it
//     fails the gate.
//
// Benchmark names are compared after stripping the -N GOMAXPROCS
// suffix so snapshots from machines with different core counts align.
// A benchmark present in the baseline but missing from the current run
// fails the gate (coverage loss); new benchmarks pass through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// allocSlack and byteSlack are the absolute allocs/op and B/op growth
// always tolerated, so single-digit scheduler-dependent wobble on tiny
// counts cannot flake the gate.
const (
	allocSlack = 16
	byteSlack  = 4096
)

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func load(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	raw := map[string]result{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(raw))
	for name, r := range raw {
		out[gomaxprocsSuffix.ReplaceAllString(name, "")] = r
	}
	return out, nil
}

// reference names the row every other row's ns/op is measured against.
const reference = "BenchmarkReferenceKernel"

// gate holds the tolerance bands.
type gate struct {
	tol, nsTol, minNs float64
}

// compare returns one message per regression of cur against base.
func (g gate) compare(base, cur map[string]result) []string {
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	baseRef, okBase := base[reference]
	curRef, okCur := cur[reference]
	if !okBase || !okCur || baseRef.NsPerOp <= 0 || curRef.NsPerOp <= 0 {
		fail("%s: missing from the baseline or the current run; ns/op cannot be gated", reference)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fail("%s: present in baseline but missing from current run", name)
			continue
		}
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			limit := float64(*b.AllocsPerOp)*(1+g.tol) + allocSlack
			if float64(*c.AllocsPerOp) > limit {
				fail("%s: allocs/op %d exceeds baseline %d by more than %.0f%% (limit %.0f)",
					name, *c.AllocsPerOp, *b.AllocsPerOp, g.tol*100, limit)
			}
		}
		if b.BytesPerOp != nil && c.BytesPerOp != nil {
			limit := float64(*b.BytesPerOp)*(1+g.tol) + byteSlack
			if float64(*c.BytesPerOp) > limit {
				fail("%s: B/op %d exceeds baseline %d by more than %.0f%% (limit %.0f)",
					name, *c.BytesPerOp, *b.BytesPerOp, g.tol*100, limit)
			}
		}
		if name != reference && b.NsPerOp >= g.minNs && okBase && okCur {
			bRatio, cRatio := b.NsPerOp/baseRef.NsPerOp, c.NsPerOp/curRef.NsPerOp
			if cRatio > bRatio*(1+g.nsTol) {
				fail("%s: ns/op %.0f is %.1fx the reference row, baseline %.1fx: more than %.0f%% above",
					name, c.NsPerOp, cRatio, bRatio, g.nsTol*100)
			}
		}
	}
	return fails
}

func main() {
	tol := flag.Float64("tol", 0.20, "allowed fractional allocs/op and B/op regression")
	nsTol := flag.Float64("nstol", 1.0, "allowed fractional regression of ns/op relative to the reference row")
	minNs := flag.Float64("minns", 1e6, "baseline ns/op below which timings are not gated")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-tol 0.20] [-nstol 1.0] [-minns 1e6] baseline.json current.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fails := gate{tol: *tol, nsTol: *nsTol, minNs: *minNs}.compare(base, cur)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL "+f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK (%d benchmarks within tolerance: allocs/bytes %.0f%%, ns relative to %s %.0f%%)\n",
		len(base), *tol*100, reference, *nsTol*100)
}
