package obs

import (
	"fmt"
	"os"
)

// This file carries span identity between processes, through the W3C
// trace-context `traceparent` header (mmogload → mmogd). Inside one
// process a span ID travels as a plain value: the daemon hands its
// request span to the endpoint and on to the operator as an argument.

// PIDSpanBase returns a span-ID base namespacing this process's spans
// by its PID for Tracer.SetIDBase. The shift is 24, not 32: Chrome
// trace args round-trip through JSON float64, which is exact only up
// to 2^53, and pid(<2^22)<<24 keeps every ID under 2^46 while leaving
// room for 16M spans per process.
func PIDSpanBase() SpanID {
	return SpanID(os.Getpid()) << 24
}

// Traceparent renders a W3C trace-context header (version 00, sampled)
// carrying the tracer's trace ID in the low 64 bits of the 128-bit
// trace-id field and the given span as parent-id.
func Traceparent(traceID uint64, span SpanID) string {
	return fmt.Sprintf("00-%032x-%016x-01", traceID, uint64(span))
}

// ParseTraceparent extracts the low 64 bits of the trace ID and the
// parent span ID from a W3C trace-context header of version 00:
// "00-" + trace-id + "-" + parent-id + "-" + flags, with 32, 16 and 2
// lowercase hex digits and neither ID all zeros. Any other header
// returns ok=false; a daemon then simply roots its own span.
func ParseTraceparent(h string) (traceID uint64, parent SpanID, ok bool) {
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return 0, 0, false
	}
	// The high half of the trace-id must be valid too, though only the
	// low half fits our uint64 trace IDs.
	hi, okHi := lowerHex(h[3:19])
	lo, okLo := lowerHex(h[19:35])
	pid, okPID := lowerHex(h[36:52])
	_, okFlags := lowerHex(h[53:])
	if !okHi || !okLo || !okPID || !okFlags || hi|lo == 0 || pid == 0 {
		return 0, 0, false
	}
	return lo, SpanID(pid), true
}

// lowerHex parses up to 16 lowercase hex digits.
func lowerHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}
