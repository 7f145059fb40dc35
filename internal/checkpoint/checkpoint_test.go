package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// record holds one field of each kind the codec carries; state is its
// one layout, run by both the writer and the reader.
type record struct {
	u            uint64
	i            int
	pi, nan, neg float64
	yes, no      bool
	s            string
	b, nilB      []byte
	fs, nilFs    []float64
	vec          [3]float64
	is           []int
	at           time.Time
}

func (r *record) state(c *Codec) {
	c.U64(&r.u)
	c.Int(&r.i)
	c.F64(&r.pi)
	c.F64(&r.nan)
	c.F64(&r.neg)
	c.Bool(&r.yes)
	c.Bool(&r.no)
	c.Str(&r.s)
	c.Bytes(&r.b)
	c.Bytes(&r.nilB)
	c.F64s(&r.fs)
	c.F64s(&r.nilFs)
	c.F64Array(r.vec[:])
	c.Ints(&r.is)
	c.Time(&r.at)
}

func TestCodecRoundTrip(t *testing.T) {
	in := record{
		u: 0xdeadbeefcafef00d, i: -42, pi: math.Pi, nan: math.NaN(), neg: math.Copysign(0, -1),
		yes: true, s: "zone/EU-west", b: []byte{1, 2, 3},
		fs: []float64{1.5, -2.25, math.Inf(1)}, vec: [3]float64{0.25, 0, 8},
		is: []int{7, -9}, at: time.Date(2008, 3, 1, 12, 30, 0, 123456789, time.UTC),
	}
	w := NewWriter()
	in.state(w)
	if w.Reading() || w.Err() != nil || w.Close() != nil || w.Commit() {
		t.Fatal("a writer reads, fails, or commits")
	}

	var out record
	r := NewReader(w.Data())
	out.state(r)
	if !r.Commit() {
		t.Fatalf("round trip refused: %v", r.Err())
	}
	if out.u != in.u || out.i != in.i || out.pi != in.pi || !out.yes || out.no || out.s != in.s {
		t.Fatalf("scalars: %+v", out)
	}
	if !math.IsNaN(out.nan) || math.Float64bits(out.neg) != math.Float64bits(in.neg) {
		t.Fatalf("NaN %v and -0 %v did not round-trip bit-exactly", out.nan, out.neg)
	}
	if !slices.Equal(out.b, in.b) || out.nilB != nil {
		t.Fatalf("Bytes = %v, %v", out.b, out.nilB)
	}
	if len(out.fs) != 3 || out.fs[1] != -2.25 || !math.IsInf(out.fs[2], 1) || out.nilFs != nil {
		t.Fatalf("F64s = %v, %v", out.fs, out.nilFs)
	}
	if out.vec != in.vec || !slices.Equal(out.is, in.is) {
		t.Fatalf("F64Array = %v, Ints = %v", out.vec, out.is)
	}
	if !out.at.Equal(in.at) || out.at.Location() != time.UTC {
		t.Fatalf("Time = %v, want %v", out.at, in.at)
	}
}

// TestCodecLayout pins the byte image: little-endian 64-bit words, one
// byte per bool, and a 64-bit length before each string and slice.
func TestCodecLayout(t *testing.T) {
	i, yes, s, v := -2, true, "ab", []float64{1}
	w := NewWriter()
	w.Int(&i)
	w.Bool(&yes)
	w.Str(&s)
	w.F64s(&v)
	want := []byte{
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1,
		2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b',
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
	}
	if !slices.Equal(w.Data(), want) {
		t.Fatalf("layout % x\nwant   % x", w.Data(), want)
	}
}

// TestReaderUnderrunIsSticky: the first underrun poisons the reader,
// every later read leaves its value as it was, and a later Failf does
// not replace the first error.
func TestReaderUnderrunIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	var u uint64
	r.U64(&u)
	first := r.Err()
	if first == nil || !errors.Is(first, ErrCorrupt) {
		t.Fatalf("underrun not detected: %v", first)
	}
	i, f, s, b, fs := 7, 2.5, "kept", true, []float64{1}
	r.Int(&i)
	r.F64(&f)
	r.Str(&s)
	r.Bool(&b)
	r.F64s(&fs)
	if u != 0 || i != 7 || f != 2.5 || s != "kept" || !b || len(fs) != 1 {
		t.Fatal("a poisoned reader changed the values it was handed")
	}
	r.Failf("later refusal")
	if r.Err() != first || r.Close() != first || r.Commit() {
		t.Fatalf("first error %v replaced by %v", first, r.Err())
	}
}

// TestReaderHostileLengths: a corrupted length prefix must not drive a
// giant allocation.
func TestReaderHostileLengths(t *testing.T) {
	n := uint64(math.MaxUint64 / 2)
	w := NewWriter()
	w.U64(&n)
	for _, read := range []func(r *Codec){
		func(r *Codec) { var s string; r.Str(&s) },
		func(r *Codec) { var b []byte; r.Bytes(&b) },
		func(r *Codec) { var fs []float64; r.F64s(&fs) },
		func(r *Codec) { var is []int; r.Ints(&is) },
		func(r *Codec) { var v [3]float64; r.F64Array(v[:]) },
	} {
		r := NewReader(w.Data())
		read(r)
		if r.Err() == nil {
			t.Fatal("hostile length accepted")
		}
	}
}

// TestReaderRefusesOtherWidth: F64Array refuses a slice of another
// length.
func TestReaderRefusesOtherWidth(t *testing.T) {
	fs := []float64{1, 2}
	w := NewWriter()
	w.F64s(&fs)
	var v [3]float64
	r := NewReader(w.Data())
	r.F64Array(v[:])
	if r.Err() == nil {
		t.Fatal("a 2-vector read as a 3-vector")
	}
}

func TestReaderCloseRejectsTrailingBytes(t *testing.T) {
	a, b := 1, 2
	w := NewWriter()
	w.Int(&a)
	w.Int(&b)
	r := NewReader(w.Data())
	r.Int(&a)
	if r.Commit() {
		t.Fatal("a reader with trailing bytes commits")
	}
	if err := r.Close(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// pair is a two-field layout whose reader notes whether it committed,
// and nest is a layout around a pair's section: nested two deep, as a
// zone set holds a neural predictor that holds its network.
type pair struct {
	a, b      int
	committed bool
}

func (p *pair) state(c *Codec) {
	c.Int(&p.a)
	c.Int(&p.b)
	p.committed = c.Commit()
}

type nest struct {
	head, tail int
	inner      pair
}

func (n *nest) state(c *Codec) {
	c.Int(&n.head)
	c.Section(n.inner.state)
	c.Int(&n.tail)
}

// TestSectionMatchesBytes: a writer's section is exactly the blob Bytes
// writes for the layout written alone, two deep too, and a reader reads
// it back with Commit inside each section speaking for that section.
func TestSectionMatchesBytes(t *testing.T) {
	written := nest{head: 3, tail: -4, inner: pair{a: 5, b: 6}}
	outer := 7
	w := NewWriter()
	w.Section(written.state)
	w.Int(&outer)

	blob := func(state func(*Codec)) []byte {
		c := NewWriter()
		state(c)
		return c.Data()
	}
	innerBlob := blob(written.inner.state)
	nestBlob := blob(func(c *Codec) {
		c.Int(&written.head)
		c.Bytes(&innerBlob)
		c.Int(&written.tail)
	})
	old := NewWriter()
	old.Bytes(&nestBlob)
	old.Int(&outer)
	if !slices.Equal(w.Data(), old.Data()) {
		t.Fatalf("sections % x\nblobs    % x", w.Data(), old.Data())
	}

	var got nest
	var gotOuter int
	r := NewReader(w.Data())
	r.Section(got.state)
	r.Int(&gotOuter)
	if !r.Commit() {
		t.Fatalf("refused: %v", r.Err())
	}
	if got.head != 3 || got.tail != -4 || got.inner.a != 5 || got.inner.b != 6 || gotOuter != 7 {
		t.Fatalf("read %+v and %d", got, gotOuter)
	}
	if !got.inner.committed {
		t.Fatal("a layout that read its whole section did not commit")
	}
}

// TestSectionRefusesHostileLength: a section length beyond the rest of
// the payload is refused before the section's layout runs.
func TestSectionRefusesHostileLength(t *testing.T) {
	for _, n := range []uint64{17, 1 << 40, math.MaxUint64} {
		rest := []int{1, 2}
		w := NewWriter()
		w.U64(&n)
		w.Int(&rest[0])
		w.Int(&rest[1])
		ran := false
		r := NewReader(w.Data())
		r.Section(func(*Codec) { ran = true })
		if !errors.Is(r.Err(), ErrCorrupt) || ran {
			t.Fatalf("length %d over 16 bytes: error %v, layout ran %v", n, r.Err(), ran)
		}
	}
}

// TestSectionRefusesTrailingBytes: a layout that reads less than its
// section refuses the payload, whether or not it asks to commit, and
// one that asks does not commit.
func TestSectionRefusesTrailingBytes(t *testing.T) {
	three := [3]int{1, 2, 3}
	w := NewWriter()
	w.Section(func(c *Codec) {
		for i := range three {
			c.Int(&three[i])
		}
	})

	var a, b int
	r := NewReader(w.Data())
	r.Section(func(c *Codec) {
		c.Int(&a)
		c.Int(&b)
	})
	if r.Err() == nil {
		t.Fatal("a section with 8 unread bytes accepted")
	}
	var p pair
	r = NewReader(w.Data())
	r.Section(p.state)
	if p.committed || r.Close() == nil {
		t.Fatalf("8 unread bytes in a section: committed %v, error %v", p.committed, r.Err())
	}
}

// TestSectionUnderrunsAtItsEnd: a layout that reads past its section
// underruns at the section's end and never reads the outer payload's
// next field.
func TestSectionUnderrunsAtItsEnd(t *testing.T) {
	one, next := 1, 99
	w := NewWriter()
	w.Section(func(c *Codec) { c.Int(&one) })
	w.Int(&next)

	p := pair{a: -1, b: -2}
	r := NewReader(w.Data())
	r.Section(p.state)
	if p.a != 1 || p.b != -2 || p.committed {
		t.Fatalf("a 1-word section read as %+v", p)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("reading past the section: %v", r.Err())
	}
	got := -3
	r.Int(&got)
	if got != -3 || r.Commit() {
		t.Fatalf("the outer payload went on reading after the underrun: %d", got)
	}
}

// TestAbortStopsBothDirections: Abort records its error in a writer,
// where Failf does not, and does not replace a reader's first error.
func TestAbortStopsBothDirections(t *testing.T) {
	boom := errors.New("no state method")
	w := NewWriter()
	w.Failf("ignored")
	w.Abort(boom)
	if w.Err() != boom || w.Close() != boom {
		t.Fatalf("writer error %v, want %v", w.Err(), boom)
	}
	r := NewReader(nil)
	var i int
	r.Int(&i)
	first := r.Err()
	r.Abort(boom)
	if first == nil || r.Err() != first {
		t.Fatalf("reader error %v, want the underrun %v", r.Err(), first)
	}
}

func TestSealOpenDetectsDamage(t *testing.T) {
	payload := []byte("the operator's precious state")
	blob := Seal(payload)
	got, err := Open(blob)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("clean blob rejected: %v", err)
	}

	// Truncation at every boundary.
	for _, n := range []int{0, 4, len(magic), headerLen - 1, len(blob) - 1} {
		if _, err := Open(blob[:n]); err == nil {
			t.Fatalf("truncated blob (%d bytes) accepted", n)
		}
	}
	// Trailing garbage.
	if _, err := Open(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("padded blob accepted")
	}
	// A bit flip anywhere in the payload breaks the checksum.
	for _, i := range []int{headerLen, headerLen + 7, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x10
		if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d not detected: %v", i, err)
		}
	}
	// Wrong magic.
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatal("wrong magic accepted")
	}
	// Future version: distinct, loud error.
	bad = append([]byte(nil), blob...)
	bad[8] = 99
	if _, err := Open(bad); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version mismatch error = %v", err)
	}
}

func TestManagerSaveLatestRoundTrip(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
	if err := m.Save(10, []byte("ten")); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(20, []byte("twenty")); err != nil {
		t.Fatal(err)
	}
	s, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tick != 20 || string(s.Payload) != "twenty" || len(s.Corrupt) != 0 {
		t.Fatalf("latest = %+v", s)
	}
}

func TestManagerPrunesOldSnapshots(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []int{10, 20, 30, 40} {
		if err := m.Save(tick, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	ticks, err := m.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 || ticks[0] != 30 || ticks[1] != 40 {
		t.Fatalf("after pruning ticks = %v", ticks)
	}
}

func TestManagerFallsBackPastCorruptSnapshot(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(20, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the newest snapshot.
	path := m.Path(20)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tick != 10 || string(s.Payload) != "good" {
		t.Fatalf("fallback snapshot = %+v", s)
	}
	if len(s.Corrupt) != 1 {
		t.Fatalf("corrupt files = %v", s.Corrupt)
	}

	// Truncate the older one too: now nothing is usable, and that must
	// be a hard error, not a silent fresh start.
	if err := os.Truncate(m.Path(10), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Latest(); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt store: %v", err)
	}
}

// TestManagerIgnoresNonCanonicalNames: a stray checkpoint-90.ckpt beside
// checkpoint-000000060.ckpt is not a snapshot. Listed as tick 90, it
// made Latest report the nonexistent checkpoint-000000090.ckpt as
// corrupt, let the next Save prune tick 60, the only valid
// predecessor, and so left nothing to fall back to once the newest
// snapshot was damaged.
func TestManagerIgnoresNonCanonicalNames(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(60, []byte("sixty")); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "checkpoint-90.ckpt")
	if err := os.WriteFile(stray, Seal([]byte("stray")), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tick != 60 || len(s.Corrupt) != 0 {
		t.Fatalf("latest = tick %d, corrupt %v; want tick 60 and none", s.Tick, s.Corrupt)
	}

	if err := m.Save(120, []byte("one-twenty")); err != nil {
		t.Fatal(err)
	}
	ticks, err := m.Ticks()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ticks, []int{60, 120}) {
		t.Fatalf("ticks after Save(120) = %v, want [60 120]", ticks)
	}

	blob, err := os.ReadFile(m.Path(120))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(m.Path(120), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tick != 60 || string(s.Payload) != "sixty" {
		t.Fatalf("fallback = tick %d %q, want tick 60", s.Tick, s.Payload)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file touched: %v", err)
	}
}
