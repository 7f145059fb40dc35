package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Admission buffers. A body buffer lives for one request; a values
// buffer travels with its sample to the game's worker, which returns it
// once the operator has copied the values out.
var (
	bodyPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 512) // io.ReadAll's first read
		return &b
	}}
	valuesPool = sync.Pool{New: func() any { return new([]float64) }}
)

// readObserve reads one POST /v1/observe body from r into *buf and
// decodes it: the game name, and the values into *vals. The name
// aliases *buf on the fast path, so it is valid until *buf is reused.
//
// The fast path takes exactly {"game":"<name>","values":[<numbers>]}
// followed by nothing but JSON whitespace, with a name of printable
// ASCII without '"' or '\'. Anything else, a read error included, goes
// to encoding/json over the buffered bytes followed by the read's own
// error. The decoder scans every buffered byte before it looks at a
// read error, so this answers exactly as decoding straight from r
// would, http.MaxBytesError included.
func readObserve(r io.Reader, buf *[]byte, vals *[]float64) (name []byte, err error) {
	b, end := readAll((*buf)[:0], r)
	*buf = b
	if name, v, ok := scanObserve(b, (*vals)[:0]); ok {
		*vals = v
		return name, nil
	}
	dec := json.NewDecoder(&buffered{b: b, err: end})
	dec.DisallowUnknownFields()
	var req ObserveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	*vals = append((*vals)[:0], req.Values...)
	return []byte(req.Game), nil
}

// readAll is io.ReadAll into b's spare capacity, except that it
// returns the error that ended the read as it is, io.EOF included.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			return b, err
		}
	}
}

// buffered replays a read body: its bytes, then the error that ended
// the read.
type buffered struct {
	b   []byte
	err error
}

func (r *buffered) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// scanObserve parses b when it is exactly a canonical body, appending
// the values to vals; ok is false for any other input. Each number is
// checked against the JSON grammar and parsed with strconv.ParseFloat
// as encoding/json parses it; one ParseFloat refuses (1e400) is left to
// the decoder, which words the error.
func scanObserve(b []byte, vals []float64) (name []byte, _ []float64, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"game":"`)); !ok {
		return nil, nil, false
	}
	i := 0
	for ; i < len(b) && b[i] != '"'; i++ {
		if b[i] < 0x20 || b[i] > 0x7e || b[i] == '\\' {
			return nil, nil, false
		}
	}
	if i == len(b) {
		return nil, nil, false
	}
	name = b[:i]
	if b, ok = bytes.CutPrefix(b[i+1:], []byte(`,"values":[`)); !ok {
		return nil, nil, false
	}
	if len(b) > 0 && b[0] != ']' {
		for {
			n := numberLen(b)
			if n == 0 {
				return nil, nil, false
			}
			v, err := strconv.ParseFloat(string(b[:n]), 64)
			if err != nil {
				return nil, nil, false
			}
			vals = append(vals, v)
			if b = b[n:]; len(b) == 0 || b[0] != ',' {
				break
			}
			b = b[1:]
		}
	}
	if b, ok = bytes.CutPrefix(b, []byte(`]}`)); !ok {
		return nil, nil, false
	}
	return name, vals, len(bytes.TrimLeft(b, " \t\n\r")) == 0
}

// numberLen returns the length of the JSON number b starts with, or 0
// when it starts with none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	j := digits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return 0
	}
	if j < len(b) && b[j] == '.' {
		if i, j = j+1, digits(b, j+1); j == i {
			return 0
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		i = j + 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			return 0
		}
	}
	return j
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
