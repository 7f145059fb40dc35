package audit

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// auditWithin runs data through mmogaudit's event path — LoadEvents,
// Analyze without metrics or trace, Render — and fails t unless it
// answers within limit. The answer is the rendered report, or nil when
// the stream did not load (a load error is a valid answer).
func auditWithin(t *testing.T, data []byte, limit time.Duration) *Report {
	t.Helper()
	type answer struct {
		rp        *Report
		renderErr error
	}
	done := make(chan answer, 1)
	go func() {
		events, err := LoadEvents(bytes.NewReader(data))
		if err != nil {
			done <- answer{}
			return
		}
		rp := Analyze(events, nil, nil)
		done <- answer{rp, rp.Render(io.Discard)}
	}()
	select {
	case a := <-done:
		if a.renderErr != nil {
			t.Fatalf("render: %v", a.renderErr)
		}
		return a.rp
	case <-time.After(limit):
		t.Fatalf("no answer within %v for %.200q", limit, data)
		return nil
	}
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
