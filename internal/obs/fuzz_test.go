package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// traceparentV00 is the W3C Trace Context version-00 header grammar,
// the reference FuzzParseTraceparent checks the parser against:
// lowercase hex only, and neither ID may be all zeros (checked
// separately).
var traceparentV00 = regexp.MustCompile(`^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$`)

// FuzzParseTraceparent requires ParseTraceparent to accept exactly the
// headers the version-00 grammar accepts, and to return the low half of
// the trace-id and the parent-id as written. An accepted header that
// Traceparent could have written (high trace half zero, flags 01) must
// round-trip through it. The seed corpus in testdata/fuzz holds the
// two headers the parser used to accept: uppercase hex digits and an
// all-zero trace-id.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(Traceparent(0xbeef, 0xab))
	f.Fuzz(func(t *testing.T, h string) {
		tid, parent, ok := ParseTraceparent(h)
		m := traceparentV00.FindStringSubmatch(h)
		want := m != nil && m[1] != strings.Repeat("0", 32) && m[2] != strings.Repeat("0", 16)
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok = %v, grammar says %v", h, ok, want)
		}
		if !ok {
			if tid != 0 || parent != 0 {
				t.Fatalf("rejected %q but returned %x/%x", h, tid, uint64(parent))
			}
			return
		}
		wantTID, _ := strconv.ParseUint(m[1][16:], 16, 64)
		wantParent, _ := strconv.ParseUint(m[2], 16, 64)
		if tid != wantTID || uint64(parent) != wantParent {
			t.Fatalf("ParseTraceparent(%q) = %x/%x, want %x/%x", h, tid, uint64(parent), wantTID, wantParent)
		}
		if m[1][:16] == strings.Repeat("0", 16) && strings.HasSuffix(h, "-01") {
			if got := Traceparent(tid, parent); got != h {
				t.Fatalf("Traceparent(%x, %x) = %q, want %q", tid, uint64(parent), got, h)
			}
		}
	})
}
