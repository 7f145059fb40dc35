// Command mmogaudit reconstructs a post-run provisioning audit from
// the telemetry artifacts a simulation wrote: the flight-recorder
// event stream, the metrics snapshot, and the span trace.
//
// Usage:
//
//	mmogsim -days 2 -mtbf 150 -obs-events run.jsonl -metrics-out run.json -trace-out run.trace
//	mmogaudit -events run.jsonl -metrics run.json -trace run.trace
//
// Only -events is required; the metrics and trace inputs unlock the
// consistency checks and the timing sections. -o writes the report to
// a file instead of stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"mmogdc/internal/audit"
	"mmogdc/internal/obs"
)

func main() {
	var (
		eventsPath  = flag.String("events", "", "flight-recorder JSONL (from mmogsim -obs-events); required")
		metricsPath = flag.String("metrics", "", "metrics snapshot JSON (from mmogsim -metrics-out)")
		tracePath   = flag.String("trace", "", "Chrome trace_event JSON (from mmogsim -trace-out)")
		loadPath    = flag.String("load", "", "load-generator report JSON (from mmogload -o)")
		clientPath  = flag.String("client-trace", "", "client-side Chrome trace (from mmogload -trace-out); with -trace, unlocks the cross-process request critical path")
		mergedPath  = flag.String("merged-trace-out", "", "write the merged client+server Chrome trace here (requires -trace and -client-trace)")
		outPath     = flag.String("o", "", "write the report here instead of stdout")
		failUnclass = flag.Bool("fail-on-unclassified", false,
			"exit 1 when any SLA-breach episode has no attributable root cause")
		failMissed = flag.Bool("fail-on-missed-breach", false,
			"exit 1 when a breach episode fired no SLO alert (or no engine was armed at all)")
		failDrops = flag.Bool("fail-on-drops", false,
			"exit 1 on degraded telemetry: the recorder ring overwrote events or the event sink errored (needs -metrics)")
		failUnexplained = flag.Bool("fail-on-unexplained", false,
			"exit 1 when a breach episode's decision chain is incomplete (or the stream has episodes but no decision provenance at all)")
	)
	flag.Parse()

	if *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "mmogaudit: -events is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*eventsPath)
	if err != nil {
		fatal(err)
	}
	events, err := audit.LoadEvents(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var md *audit.MetricsDoc
	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			fatal(err)
		}
		md, err = audit.LoadMetrics(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	var tr, clientTr *obs.Trace
	if *tracePath != "" {
		tr = readTrace(*tracePath)
	}
	if *clientPath != "" {
		clientTr = readTrace(*clientPath)
	}

	report := audit.Analyze(events, md, tr)

	if clientTr != nil && tr != nil {
		rpp, merged := audit.CrossProcess(clientTr, tr)
		report.AttachRequestPath(rpp)
		if *mergedPath != "" {
			f, err := os.Create(*mergedPath)
			if err != nil {
				fatal(err)
			}
			err = obs.WriteTraceEvents(f, merged)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
		}
	} else if *mergedPath != "" {
		fmt.Fprintln(os.Stderr, "mmogaudit: -merged-trace-out needs both -trace and -client-trace")
		os.Exit(2)
	}

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		ld, err := audit.LoadLoadReport(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		report.AttachLoad(ld)
	}

	out := os.Stdout
	if *outPath != "" {
		out, err = os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
	}
	if err := report.Render(out); err != nil {
		fatal(err)
	}

	// A failed consistency check is an audit finding, not a crash —
	// report it in the exit status so CI can gate on it.
	for _, c := range report.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "mmogaudit: consistency check failed: %s (want %s, got %s)\n",
				c.Name, c.Want, c.Got)
			os.Exit(1)
		}
	}
	if *failUnclass && report.Unclassified > 0 {
		fmt.Fprintf(os.Stderr, "mmogaudit: %d SLA-breach episode(s) unclassified — no signal in the stream explains them\n",
			report.Unclassified)
		os.Exit(1)
	}
	if *failMissed {
		switch a := report.Alerts; {
		case a == nil && len(report.Episodes) > 0:
			fmt.Fprintf(os.Stderr, "mmogaudit: %d breach episode(s) but no SLO engine armed (no slo_alert events)\n",
				len(report.Episodes))
			os.Exit(1)
		case a != nil && a.Detected < a.Episodes:
			fmt.Fprintf(os.Stderr, "mmogaudit: %d of %d breach episode(s) fired no SLO alert\n",
				a.Episodes-a.Detected, a.Episodes)
			os.Exit(1)
		}
	}
	if *failDrops && (report.Recorder.Dropped > 0 || report.Recorder.SinkErrs > 0) {
		fmt.Fprintf(os.Stderr, "mmogaudit: degraded telemetry — %d event(s) overwritten by the recorder ring, %d sink error(s)\n",
			report.Recorder.Dropped, report.Recorder.SinkErrs)
		os.Exit(1)
	}
	if *failUnexplained {
		switch {
		case !report.HasDecisions && len(report.Episodes) > 0:
			fmt.Fprintf(os.Stderr, "mmogaudit: %d breach episode(s) but no decision provenance in the stream (run with -provenance / -explain)\n",
				len(report.Episodes))
			os.Exit(1)
		case report.UnexplainedChains > 0:
			fmt.Fprintf(os.Stderr, "mmogaudit: %d acquisition(s) in breach windows have no decision record\n",
				report.UnexplainedChains)
			os.Exit(1)
		}
	}
}

// readTrace reads a Chrome trace file, exiting on failure.
func readTrace(path string) *obs.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
