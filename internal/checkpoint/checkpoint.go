// Package checkpoint implements the durable-state layer of the
// provisioning stack: a compact deterministic binary codec, a sealed
// (versioned + checksummed) blob format, and an atomic on-disk store
// that keeps the latest snapshots of a run and falls back to the
// previous good one when the newest is truncated or bit-flipped.
//
// The paper's middleware plays a contract-bound role between game
// operators and hosters; its online state — predictor histories,
// standing leases, backoff counters — must survive a controller
// restart. Everything in this package is built for that: encodings
// round-trip float64 values bit-exactly (so a restored run continues
// the uninterrupted trajectory), writes are temp-file + fsync + rename
// (a crash mid-write never destroys the previous snapshot), and a
// checksum mismatch is always a loud error, never a silently loaded
// half-checkpoint.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"time"
)

// Version is the current sealed-blob format version. Decoders reject
// blobs written by a different version rather than guessing.
const Version = 1

// magic marks a sealed checkpoint blob. Eight bytes, fixed.
const magic = "MMOGCKPT"

// headerLen is magic + version (u32) + payload length (u64) + CRC64.
const headerLen = len(magic) + 4 + 8 + 8

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt reports a sealed blob that failed validation: truncated,
// bit-flipped, or not a checkpoint at all.
var ErrCorrupt = fmt.Errorf("checkpoint: corrupt or truncated blob")

// Seal frames a payload into a self-validating blob:
// magic | version | payload length | CRC64(payload) | payload.
func Seal(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[8:], Version)
	binary.LittleEndian.PutUint64(out[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[20:], crc64.Checksum(payload, crcTable))
	copy(out[headerLen:], payload)
	return out
}

// Open validates a sealed blob and returns its payload. Any damage —
// wrong magic, truncation, trailing garbage, checksum mismatch —
// yields an error wrapping ErrCorrupt; a version from a different
// format generation is reported distinctly.
func Open(blob []byte) ([]byte, error) {
	if len(blob) < headerLen || string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(blob[8:]); v != Version {
		return nil, fmt.Errorf("checkpoint: version %d, want %d", v, Version)
	}
	n := binary.LittleEndian.Uint64(blob[12:])
	if uint64(len(blob)-headerLen) != n {
		return nil, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(blob)-headerLen, n)
	}
	payload := blob[headerLen:]
	if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(blob[20:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Codec runs a payload layout in one of two directions, so each
// checkpointed type names its fields once, in one state method that
// hands each field's address to the codec in layout order: a writer
// (NewWriter) appends the value, and a reader (NewReader) overwrites it
// with the payload's next value. Integers are little-endian fixed
// width; floats are IEEE-754 bit images, so NaN payloads and signed
// zeros round-trip exactly.
//
// A reader's errors are sticky: the first underrun, hostile length or
// Failf poisons it, every later read leaves its value as it was, and
// the caller checks Err or Close once. A state method therefore states
// each check once, against the values just read, with Failf, which a
// writer ignores; only where the directions really differ (a lease
// book rebuilt rather than written, a restore committed only once the
// whole payload has been read) does it ask which way it runs.
type Codec struct {
	b       []byte
	off     int
	reading bool
	err     error
}

// NewWriter returns a codec that appends to an empty payload.
func NewWriter() *Codec { return &Codec{} }

// NewReader returns a codec that reads the payload.
func NewReader(payload []byte) *Codec { return &Codec{b: payload, reading: true} }

// Reading reports whether c reads a payload rather than writing one.
func (c *Codec) Reading() bool { return c.reading }

// Data returns the payload a writer has written.
func (c *Codec) Data() []byte { return c.b }

// Err returns the codec's first error, if any: a reader's refusal, or
// an Abort in either direction.
func (c *Codec) Err() error { return c.err }

// Failf refuses the values a reader has just read, unless an earlier
// error stands. A writer ignores it.
func (c *Codec) Failf(format string, args ...any) {
	if c.reading && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Abort stops a writer or a reader with err, unless an earlier error
// stands: for a value the layout cannot carry at all, such as a
// predictor without a state method, where Failf refuses values read.
func (c *Codec) Abort(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Close returns the codec's first error, or a reader's error if the
// payload was not fully consumed (a length drift between writer and
// reader). Inside a Section it speaks for the section.
func (c *Codec) Close() error {
	if c.err == nil && c.off != len(c.b) && c.reading {
		c.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.b)-c.off)
	}
	return c.err
}

// Commit reports whether a reader has read its whole payload without
// error: the point at which a restore applies what it read, so that a
// refused payload leaves the restored value as it was. A writer never
// commits.
func (c *Codec) Commit() bool { return c.reading && c.Close() == nil }

// take returns the payload's next n bytes, or nil, poisoning the
// reader, when fewer are left.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b)-c.off < n {
		c.err = fmt.Errorf("%w: payload underrun", ErrCorrupt)
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// U64 writes or reads an unsigned 64-bit value.
func (c *Codec) U64(v *uint64) {
	if c.reading {
		c.readU64(v)
		return
	}
	c.b = binary.LittleEndian.AppendUint64(c.b, *v)
}

// Int writes or reads a signed integer.
func (c *Codec) Int(v *int) {
	if c.reading {
		c.readInt(v)
		return
	}
	c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
}

// F64 writes or reads a float64 bit-exactly.
func (c *Codec) F64(v *float64) {
	if c.reading {
		c.readF64(v)
		return
	}
	c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
}

// The reading halves of U64, Int and F64 stay out of line, so that the
// writing halves, an append each, inline into the state methods that
// call them.

//go:noinline
func (c *Codec) readU64(v *uint64) { *v = c.word(*v) }

//go:noinline
func (c *Codec) readInt(v *int) { *v = int(int64(c.word(uint64(*v)))) }

//go:noinline
func (c *Codec) readF64(v *float64) { *v = math.Float64frombits(c.word(math.Float64bits(*v))) }

// word reads the payload's next 64-bit word, or returns old once the
// reader is poisoned.
func (c *Codec) word(old uint64) uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return old
}

// Bool writes or reads a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	if !c.reading {
		var b byte
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
	} else if p := c.take(1); p != nil {
		*v = p[0] != 0
	}
}

// Str writes or reads a length-prefixed string.
func (c *Codec) Str(v *string) {
	if !c.reading {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(len(*v)))
		c.b = append(c.b, *v...)
	} else if p := c.lenPrefixed(); p != nil {
		*v = string(p)
	}
}

// Bytes writes or reads a length-prefixed byte slice; a reader's copy
// is nil when empty.
func (c *Codec) Bytes(v *[]byte) {
	if !c.reading {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(len(*v)))
		c.b = append(c.b, *v...)
	} else if p := c.lenPrefixed(); p != nil {
		*v = append([]byte(nil), p...)
	}
}

// Section writes or reads a nested layout, such as a predictor's inside
// a zone set's, as a length-prefixed section that state fills: exactly
// the bytes Bytes writes for the payload state writes alone. A writer
// reserves the length word, runs state on the same buffer and
// back-patches the length. A reader refuses a length beyond the payload
// and runs state over exactly that many bytes, so that a layout reading
// past its section underruns at the section's end, and Commit and Close
// inside state speak for the section; it refuses the payload unless
// state read the whole section.
func (c *Codec) Section(state func(*Codec)) {
	if !c.reading {
		at := len(c.b)
		c.b = binary.LittleEndian.AppendUint64(c.b, 0)
		state(c)
		binary.LittleEndian.PutUint64(c.b[at:], uint64(len(c.b)-at-8))
		return
	}
	p := c.lenPrefixed()
	if c.err != nil {
		return
	}
	outer, end := c.b, c.off
	c.b, c.off = c.b[:end], end-len(p)
	state(c)
	c.Close()
	c.b, c.off = outer, end
}

// lenPrefixed reads a length and that many bytes, refusing a length
// beyond the payload before anything is sized from it.
func (c *Codec) lenPrefixed() []byte {
	n := c.word(0)
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)-c.off) {
		c.err = fmt.Errorf("%w: length %d exceeds payload", ErrCorrupt, n)
		return nil
	}
	return c.take(int(n))
}

// count reads a slice length, refusing one the rest of the payload
// cannot hold at 8 bytes an element; ok is false once the reader is
// poisoned.
func (c *Codec) count() (n int, ok bool) {
	w := c.word(0)
	if c.err != nil {
		return 0, false
	}
	if w > uint64(len(c.b)-c.off)/8 {
		c.err = fmt.Errorf("%w: slice length %d exceeds payload", ErrCorrupt, w)
		return 0, false
	}
	return int(w), true
}

// F64s writes or reads a length-prefixed float64 slice. A reader
// replaces *v with fresh storage, nil when empty, so it never writes
// into the slice it was handed.
func (c *Codec) F64s(v *[]float64) {
	if !c.reading {
		// Appending to a local and storing it once keeps the loop out
		// of the write barrier.
		b := binary.LittleEndian.AppendUint64(c.b, uint64(len(*v)))
		for _, x := range *v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		c.b = b
		return
	}
	n, ok := c.count()
	if !ok {
		return
	}
	var out []float64
	if n > 0 {
		out = make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(c.word(0))
		}
	}
	*v = out
}

// F64Array writes or reads a length-prefixed float64 slice of fixed
// length len(v), such as a resource vector, in place; a reader refuses
// any other length.
func (c *Codec) F64Array(v []float64) {
	if !c.reading {
		c.F64s(&v)
		return
	}
	n, ok := c.count()
	if ok && n != len(v) {
		c.Failf("vector of %d values, want %d", n, len(v))
	}
	for i := range v {
		c.F64(&v[i])
	}
}

// Ints writes or reads a length-prefixed int slice, as F64s does.
func (c *Codec) Ints(v *[]int) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint64(c.b, uint64(len(*v)))
		for _, x := range *v {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		c.b = b
		return
	}
	n, ok := c.count()
	if !ok {
		return
	}
	var out []int
	if n > 0 {
		out = make([]int, n)
		for i := range out {
			out[i] = int(int64(c.word(0)))
		}
	}
	*v = out
}

// Time writes or reads an instant with nanosecond precision; a reader
// returns it in UTC.
func (c *Codec) Time(v *time.Time) {
	sec, nsec := int(v.Unix()), v.Nanosecond()
	c.Int(&sec)
	c.Int(&nsec)
	if c.reading && c.err == nil {
		*v = time.Unix(int64(sec), int64(nsec)).UTC()
	}
}

// Expect writes want, or reads a value of its type and refuses any
// other: what a checkpoint's fingerprint and a predictor's
// configuration are made of. what names the value in the refusal.
func Expect[T int | float64 | bool | string](c *Codec, want T, what string) {
	got := want
	switch p := any(&got).(type) {
	case *int:
		c.Int(p)
	case *float64:
		c.F64(p)
	case *bool:
		c.Bool(p)
	case *string:
		c.Str(p)
	}
	if got != want {
		c.Failf("%s %#v, want %#v", what, got, want)
	}
}
