package audit

import (
	"bytes"
	"io"
	"testing"
	"time"

	"mmogdc/internal/obs"
)

// answerWithin runs answer on its own goroutine and fails t unless it
// returns within limit, and without an error; data names the input.
func answerWithin(t *testing.T, data []byte, limit time.Duration, answer func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- answer() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("render: %v", err)
		}
	case <-time.After(limit):
		t.Fatalf("no answer within %v for %.200q", limit, data)
	}
}

// auditWithin runs data through mmogaudit's event path — LoadEvents,
// Analyze without metrics or trace, Render — and fails t unless it
// answers within limit. The answer is the rendered report, or nil when
// the stream did not load (a load error is a valid answer).
func auditWithin(t *testing.T, data []byte, limit time.Duration) *Report {
	t.Helper()
	var rp *Report
	answerWithin(t, data, limit, func() error {
		events, err := LoadEvents(bytes.NewReader(data))
		if err != nil {
			return nil
		}
		rp = Analyze(events, nil, nil)
		return rp.Render(io.Discard)
	})
	return rp
}

// TestAnalyzeExtremeTicks classifies breach episodes at both ends of
// the int range like any other. An episode ending at math.MaxInt used
// to hang Analyze (its cause window's loop wrapped past the end), and
// one starting at math.MinInt wrapped its window the other way and
// missed the grant before it.
func TestAnalyzeExtremeTicks(t *testing.T) {
	cases := []struct {
		name, stream, cause string
		tick                int
	}{
		{"max", `{"seq":1,"tick":9223372036854775807,"kind":"sla_breach","value":-5}`,
			"unclassified", 1<<63 - 1},
		{"max after grant", `{"seq":1,"tick":9223372036854775805,"kind":"grant","subject":"z"}
{"seq":2,"tick":9223372036854775807,"kind":"sla_breach","value":-5}`,
			"prediction miss", 1<<63 - 1},
		{"min with grant", `{"seq":1,"tick":-9223372036854775808,"kind":"grant","subject":"z"}
{"seq":2,"tick":-9223372036854775808,"kind":"sla_breach","value":-5}`,
			"prediction miss", -1 << 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := auditWithin(t, []byte(tc.stream), 5*time.Second)
			if rp == nil {
				t.Fatal("stream did not load")
			}
			if len(rp.Episodes) != 1 {
				t.Fatalf("episodes = %+v, want one", rp.Episodes)
			}
			if ep := rp.Episodes[0]; ep.StartTick != tc.tick || ep.EndTick != tc.tick || ep.Cause != tc.cause {
				t.Fatalf("episode = %+v, want tick %d cause %q", ep, tc.tick, tc.cause)
			}
		})
	}
}

// FuzzAnalyzeEvents feeds arbitrary bytes to mmogaudit as a flight
// recorder stream. Each must end in a load error or a rendered report
// within 5 s, never a panic or a hang. The seed corpus
// (testdata/fuzz/FuzzAnalyzeEvents) holds the extreme-tick streams and
// a short chaos stream with every kind the classifier and the
// why-chains read.
func FuzzAnalyzeEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		auditWithin(t, data, 5*time.Second)
	})
}

// FuzzAnalyzeTrace feeds arbitrary bytes to mmogaudit as a span trace:
// obs.ReadTrace, then the timing sections (Analyze without events or
// metrics, Render) and the cross-process merge of the trace with
// itself, written back out with obs.WriteTraceEvents. Each input must
// end in an error or a report within 5 s, never a panic or a hang; a
// merged trace that cannot be written (an offset overflowed to ±Inf)
// is an error. The seed corpus (testdata/fuzz/FuzzAnalyzeTrace) holds a
// complete span without dur, the input a dereference of the optional
// duration would crash on; non-numeric and negative span and parent
// arguments; and a ts of 1e308.
func FuzzAnalyzeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		answerWithin(t, data, 5*time.Second, func() error {
			tr, err := obs.ReadTrace(bytes.NewReader(data))
			if err != nil {
				return nil
			}
			if err := Analyze(nil, nil, tr).Render(io.Discard); err != nil {
				return err
			}
			_, merged := CrossProcess(tr, tr)
			_ = obs.WriteTraceEvents(io.Discard, merged)
			return nil
		})
	})
}
