package obs

import (
	"os"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	h := Traceparent(0xBEEF, 0x1234ABCD)
	if h != "00-0000000000000000000000000000beef-000000001234abcd-01" {
		t.Fatalf("header = %q", h)
	}
	tid, parent, ok := ParseTraceparent(h)
	if !ok || tid != 0xBEEF || parent != 0x1234ABCD {
		t.Fatalf("parse(%q) = %x/%x/%v", h, tid, uint64(parent), ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-xyz-0000000000000001-01",
		"01-00000000000000000000000000000001-0000000000000001-01", // unknown version
		"00-00000000000000000000000000000001-0000000000000000-01", // zero parent
		"00-0000000000000001-0000000000000001-01",                 // short trace id
		"00-00000000000000000000000000000001-0000000000000001",    // missing flags
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

// Merged multi-process traces rely on disjoint span-ID ranges and on
// every ID surviving a trip through JSON float64 (Chrome trace args).
func TestSetIDBaseAndPIDSpanBase(t *testing.T) {
	tr := NewTracer(8)
	tr.SetIDBase(1 << 30)
	s := tr.Begin("a", "t", 0)
	if s.ID() != 1<<30+1 {
		t.Fatalf("first span ID = %d, want %d", s.ID(), 1<<30+1)
	}
	s.End()

	base := PIDSpanBase()
	if want := SpanID(os.Getpid()) << 24; base != want {
		t.Fatalf("PIDSpanBase = %d, want %d", base, want)
	}
	// Exact in float64 even with 16M spans allocated on top.
	hi := uint64(base) + 1<<24
	if float64(hi) != float64(hi)+0 || uint64(float64(hi)) != hi {
		t.Fatalf("ID %d not exact in float64", hi)
	}
	if uint64(base)>>53 != 0 {
		t.Fatalf("PIDSpanBase %d exceeds 2^53 float64-exact range", base)
	}

	var nilT *Tracer
	nilT.SetIDBase(9) // must not panic
}
