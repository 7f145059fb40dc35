// Command bench is mmogdc's end-to-end benchmark. It times the batch
// provisioning engine (core.Run) in-process and the provisioning
// daemon (cmd/mmogd, built from the tree under test) as a child
// process under an open-loop load sent from this process. Every run
// checks the outputs, prints each metric by name with its unit, and
// ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// Usage, from this directory:
//
//	go run . -workload sim-paper -seed 42 -seconds 30 -trace 0
//	go run . -seed 42                 # every workload, one child process each
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run switches on telemetry that already exists (core.Config.Obs,
// mmogd -trace-out), adds timing around public calls from this
// package, and reports the per-layer metrics instead. README.md lists
// the workloads, the metrics and how each layer maps to an end-to-end
// number.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scale sizes a run. The benchmark uses fullScale; the smoke test
// shrinks every workload so the whole set runs in seconds.
type scale struct {
	// simDays is the generated trace length of the sim workloads, and
	// simTraces how many traces a timed sim run draws from its seed
	// (trace i from seed*simTraces+i).
	simDays, simTraces int
	// setups is the least number of set-ups per run (setup_s is their
	// median).
	setups int
	// minReps is the least number of timed core.Run reps per run.
	minReps int
	// daemonRate overrides the daemon workload's sample rate (0 keeps
	// the workload's own).
	daemonRate float64
	// inprocSamples caps the samples the in-process daemon and
	// operator measurements of a traced run replay.
	inprocSamples int
}

// fullScale runs the sims on two-day traces (1,439 ticks): a rep takes
// about a quarter of a second, so a 30 s run times about ninety of them.
// A 14-day rep took 2 to 6 s, and a run's few of them did not settle.
// The work a tick takes depends on its trace (one trace's allocations
// per tick spread 0.06 across ten seeds, and its CPU time with them), so
// a run times four traces and reports their mean.
var fullScale = scale{simDays: 2, simTraces: 4, setups: 4, minReps: 3, inprocSamples: 1000}

// run is one workload invocation: its inputs, where it may write, and
// the result being built.
type run struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    scale
	// root is the repository checkout; work is the scratch directory
	// for binaries and temporary files; out receives traced artifacts.
	root, work, out string

	// cal times the reference kernel, interleaved with the workload.
	cal calibration

	res result
}

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"sim-paper", func(r *run) error { return runSim(r, paperSim) }},
	{"sim-chaos", func(r *run) error { return runSim(r, chaosSim) }},
	{"daemon-steady", func(r *run) error { return runDaemon(r, steadyDaemon) }},
}

func main() {
	var (
		workload = flag.String("workload", "all", "sim-paper | sim-chaos | daemon-steady | all")
		seed     = flag.Uint64("seed", 42, "workload seed; every other seed is derived from it")
		seconds  = flag.Int("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root     = flag.String("root", "..", "repository root holding cmd/mmogd")
		work     = flag.String("work", "", "scratch directory for binaries and temporary files (default <root>/.bench_build)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("bench: -seconds must be >= 1 and -trace 0 or 1")
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: fullScale}
	var err error
	if r.root, err = filepath.Abs(*root); err != nil {
		fatalf("bench: %v", err)
	}
	if _, err := os.Stat(filepath.Join(r.root, "cmd", "mmogd")); err != nil {
		fatalf("bench: %s is not the repository root: %v", r.root, err)
	}
	r.work = *work
	if r.work == "" {
		r.work = filepath.Join(r.root, ".bench_build")
	}
	if r.work, err = filepath.Abs(r.work); err != nil {
		fatalf("bench: %v", err)
	}
	r.out = filepath.Join(r.root, "bench", "out")

	if *workload == "all" {
		os.Exit(runAll(r))
	}
	if err := r.execute(); err != nil {
		fatalf("bench: %s: %v", r.workload, err)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// execute runs r's workload, filling r.res.
func (r *run) execute() error {
	for _, w := range workloads {
		if w.name != r.workload {
			continue
		}
		if err := os.MkdirAll(r.work, 0o755); err != nil {
			return err
		}
		if r.trace {
			if err := os.MkdirAll(r.out, 0o755); err != nil {
				return err
			}
		}
		r.res = result{Correct: true, Metrics: map[string]metric{}}
		mode := "end-to-end"
		if r.trace {
			mode = "traced"
		}
		fmt.Printf("== %s seed=%d seconds=%d (%s)\n", r.workload, r.seed, r.seconds, mode)
		return w.run(r)
	}
	return fmt.Errorf("unknown workload (want one of sim-paper, sim-chaos, daemon-steady, all)")
}

// measureFor is how long a run times its workload.
func (r *run) measureFor() time.Duration {
	return time.Duration(r.seconds) * time.Second
}

// Set-up repeats at least scale.setups times, and keeps repeating while
// all set-ups so far took under setupBudget (up to maxSetups), so a
// set-up of a few milliseconds still yields a steady median.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 31
)

// moreSetups reports whether another set-up should follow the done
// ones, which took spent in total.
func (r *run) moreSetups(done int, spent time.Duration) bool {
	return done < r.scale.setups || (spent < setupBudget && done < maxSetups)
}

// setCPU records a gated CPU time, value, taken from samples scaled to
// the reference VM's speed by r.cal. measured holds the same samples
// as measured, for the printed note.
func (r *run) setCPU(name string, value float64, measured []float64, unit, note string) {
	r.set(name, value, unit, fmt.Sprintf("%s; as measured %s", note, spread(measured)))
}

// set records one metric and prints it; note says how it was taken. A
// non-finite value fails the run and reads -1.
func (r *run) set(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.check(name+" is finite", false, fmt.Sprint(value))
		value = -1
	}
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("  %-28s %16.4f %-12s %s\n", name, value, unit, note)
}

// check prints one PASS/FAIL line; a failure makes the run incorrect and
// is repeated on standard error, where a caller keeping only the tail of
// the output still sees it.
func (r *run) check(name string, ok bool, detail string) {
	if ok {
		fmt.Printf("  PASS %s: %s\n", name, detail)
		return
	}
	r.res.Correct = false
	fmt.Printf("  FAIL %s: %s\n", name, detail)
	fmt.Fprintf(os.Stderr, "bench: %s: FAIL %s: %s\n", r.workload, name, detail)
}

// runAll runs every workload as a child process of this binary, so heap
// state and peak RSS stay per workload, and folds their result lines
// into one whose metric names carry the workload as a prefix.
func runAll(r *run) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		res, err := child("-workload", w.name, "-seed", fmt.Sprint(r.seed),
			"-seconds", fmt.Sprint(r.seconds), "-trace", boolFlag(r.trace),
			"-root", r.root, "-work", r.work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"/"+name] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		code = 1
	}
	return code
}

// child runs this binary with args, copies its output through, and
// returns its result line. A child that fails its checks still returns
// its result; one that prints none is an error.
func child(args ...string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	last := relay(stdout)
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line (%v)", werr)
	}
	return res, nil
}

// relay copies a child's output to stdout, holding back the last line
// (its result), which it returns.
func relay(r io.Reader) string {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var last string
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if strings.HasPrefix(last, "{") {
		return last
	}
	fmt.Println(last)
	return ""
}

func boolFlag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
