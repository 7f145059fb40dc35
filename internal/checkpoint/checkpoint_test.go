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

func TestCodecRoundTrip(t *testing.T) {
	e := NewEnc()
	e.U64(0xdeadbeefcafef00d)
	e.Int(-42)
	e.F64(math.Pi)
	e.F64(math.NaN())
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.Bool(false)
	e.Str("zone/EU-west")
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.F64s([]float64{1.5, -2.25, math.Inf(1)})
	e.F64s(nil)
	e.Ints([]int{7, -9})
	now := time.Date(2008, 3, 1, 12, 30, 0, 123456789, time.UTC)
	e.Time(now)

	d := NewDec(e.Data())
	if got := d.U64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("U64 = %x", got)
	}
	if got := d.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Fatalf("NaN did not round-trip: %v", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 did not round-trip bit-exactly: %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.Str(); got != "zone/EU-west" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Bytes(); len(got) != 3 || got[0] != 1 {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Fatalf("nil Bytes = %v", got)
	}
	fs := d.F64s()
	if len(fs) != 3 || fs[1] != -2.25 || !math.IsInf(fs[2], 1) {
		t.Fatalf("F64s = %v", fs)
	}
	if got := d.F64s(); got != nil {
		t.Fatalf("empty F64s = %v", got)
	}
	is := d.Ints()
	if len(is) != 2 || is[1] != -9 {
		t.Fatalf("Ints = %v", is)
	}
	if got := d.Time(); !got.Equal(now) {
		t.Fatalf("Time = %v, want %v", got, now)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecUnderrunIsSticky(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	d.U64()
	if d.Err() == nil {
		t.Fatal("underrun not detected")
	}
	// Poisoned decoder keeps returning zero values, never panics.
	if d.Int() != 0 || d.F64() != 0 || d.Str() != "" || d.Bool() {
		t.Fatal("poisoned decoder returned non-zero values")
	}
	if d.Close() == nil {
		t.Fatal("Close swallowed the error")
	}
}

func TestDecHostileLengths(t *testing.T) {
	// A corrupted length prefix must not drive a giant allocation.
	e := NewEnc()
	e.U64(math.MaxUint64 / 2)
	for _, read := range []func(d *Dec){
		func(d *Dec) { d.Str() },
		func(d *Dec) { d.Bytes() },
		func(d *Dec) { d.F64s() },
		func(d *Dec) { d.Ints() },
	} {
		d := NewDec(e.Data())
		read(d)
		if d.Err() == nil {
			t.Fatal("hostile length accepted")
		}
	}
}

func TestDecCloseRejectsTrailingBytes(t *testing.T) {
	e := NewEnc()
	e.Int(1)
	e.Int(2)
	d := NewDec(e.Data())
	d.Int()
	if err := d.Close(); err == nil {
		t.Fatal("trailing bytes accepted")
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
