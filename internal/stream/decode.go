package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

const (
	maxReusedFrame = 64 << 10 // larger frames get a one-off buffer
	maxDepth       = 10000    // encoding/json's nesting limit
	caseBit        = 0x20     // ASCII letters differ in case by this bit alone
)

var (
	errUnexpected = errors.New("unexpected input")
	errInt        = errors.New("integer field holds a fraction, an exponent or an out-of-range number")
	errDepth      = errors.New("exceeded max depth")

	requestFields = []string{"v", "type", "session", "spec", "events", "register", "predicate"}
	eventFields   = []string{"proc", "vc", "truth", "val", "var"}
	requestTypes  = []string{"open", "append", "query", "close", "register", "unregister"}
)

// frameDecoder reads the request frames of one connection and decodes
// each in one pass, without reflection. It accepts what json.Unmarshal
// into a fresh Request accepts and yields the same Request, except that
// a field repeated in the request or in one event is refused where
// encoding/json merges it into the earlier value; FuzzDecodeFrame holds
// the two to this. encoding/json handles only the cold parts: spec and
// register values, values under unknown keys, and strings holding an
// escape, a control character or a non-ASCII byte. The frame buffer is
// reused, so strings are copied out of it, and each frame's events and
// clocks are one fresh exact-size slice and arena, never pooled: shards,
// holdback and retaining sessions keep events past the reply.
type frameDecoder struct {
	hdr  [frameHeaderLen]byte
	buf  []byte // up to maxReusedFrame, so an idle connection pins no more
	data []byte // the payload being decoded
	pos  int
	err  error // the first error, which ends every loop
}

// read reads one frame's payload: into the reused buffer, or past
// maxReusedFrame into a one-off one. The length is checked first, so no
// prefix makes it allocate more than MaxFrame bytes.
func (d *frameDecoder) read(r io.Reader) ([]byte, error) {
	if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := d.buf
	if int(n) > cap(payload) {
		payload = make([]byte, n)
		if n <= maxReusedFrame {
			d.buf = payload
		}
	}
	if _, err := io.ReadFull(r, payload[:n]); err != nil {
		return nil, err
	}
	return payload[:n], nil
}

// next reads and decodes one frame, returning the request and the
// frame's size on the wire.
func (d *frameDecoder) next(r io.Reader) (Request, int, error) {
	payload, err := d.read(r)
	if err != nil {
		return Request{}, 0, err
	}
	req, err := d.decode(payload)
	return req, frameHeaderLen + len(payload), err
}

// decode decodes one request payload.
//
//lint:hotpath
func (d *frameDecoder) decode(p []byte) (Request, error) {
	d.data, d.pos, d.err = p, 0, nil
	var req Request
	var seen uint
	d.expect('{') // a top-level null, json.Unmarshal's zero Request, fails the version check there
	for i := 0; d.more('}', i); i++ {
		switch d.field(requestFields, &seen) {
		case "v":
			req.V = int(d.integer())
		case "type":
			req.Type = d.text(requestTypes...)
		case "session":
			req.Session = d.text()
		case "spec":
			req.Spec = unmarshal[*Spec](d, d.skip(2))
		case "events":
			req.Events = d.events()
		case "register":
			req.Register = unmarshal[*RegisterSpec](d, d.skip(2))
		case "predicate":
			req.Predicate = d.text()
		default:
			d.skip(2)
		}
	}
	if d.at(); d.pos != len(d.data) {
		d.fail(errUnexpected) // trailing bytes
	}
	d.data = nil // drop a one-off buffer
	if d.err != nil {
		return Request{}, fmt.Errorf("stream: bad request frame: %w", d.err)
	}
	if req.V != ProtocolVersion {
		return Request{}, fmt.Errorf("stream: protocol version %d, want %d", req.V, ProtocolVersion)
	}
	return req, nil
}

// events decodes the events array: a first walk counts the events and
// clock components, a second fills memory of exactly that size.
func (d *frameDecoder) events() []Event {
	if d.lit("null") {
		return nil
	}
	start := d.pos
	nev, nclk := d.walk(nil, nil)
	d.pos = start
	events := make([]Event, nev, nev)
	d.walk(events, make([]int64, nclk, nclk))
	return events
}

// walk walks the events array, counting its events and clock
// components. Given events and clocks of those sizes it fills them too;
// counting, it only checks the var strings it would copy.
func (d *frameDecoder) walk(events []Event, clocks []int64) (nev, nclk int) {
	var scratch Event
	d.expect('[')
	for ; d.more(']', nev); nev++ {
		ev := &scratch
		if events != nil {
			ev = &events[nev]
		}
		if d.lit("null") {
			continue
		}
		d.expect('{')
		var seen uint
		for i := 0; d.more('}', i); i++ {
			switch d.field(eventFields, &seen) {
			case "proc":
				ev.Proc = int(d.integer())
			case "vc":
				if d.lit("null") {
					break
				}
				d.expect('[')
				start := nclk
				for ; d.more(']', nclk-start); nclk++ {
					if v := d.integer(); clocks != nil {
						clocks[nclk] = v
					}
				}
				if clocks != nil {
					ev.VC = clocks[start:nclk:nclk]
				}
			case "truth": // true; false or null for false
				ev.Truth = d.lit("true") || !d.lit("false") && !d.lit("null") && d.fail(errUnexpected)
			case "val":
				ev.Val = d.integer()
			case "var":
				if events != nil {
					ev.Var = d.text()
				} else {
					d.skip(4)
				}
			default:
				d.skip(4)
			}
		}
	}
	return nev, nclk
}

// text decodes a string field; null is "". A value equal to one of known
// is returned as that string rather than copied.
func (d *frameDecoder) text(known ...string) string {
	if d.lit("null") {
		return ""
	}
	tok, plain := d.str()
	if d.err != nil || !plain {
		return unmarshal[string](d, tok)
	}
	b := tok[1 : len(tok)-1]
	for _, s := range known {
		if match(b, s, 0) {
			return s
		}
	}
	//lint:ignore hotalloc the string is copied out of the frame buffer, which the next frame overwrites
	return string(b)
}

// unmarshal decodes, and so checks, the cold parts of a frame with
// encoding/json: spec and register values, and string tokens that are
// not plain.
//
//lint:coldpath
func unmarshal[T any](d *frameDecoder, raw []byte) (v T) {
	if d.err == nil {
		if err := json.Unmarshal(raw, &v); err != nil {
			d.fail(err)
		}
	}
	return v
}

// field reads an object key and its colon and returns the name in names
// it matches — exactly or case-folded, as encoding/json matches — or "".
// A name matched twice in one object is refused.
func (d *frameDecoder) field(names []string, seen *uint) string {
	tok, plain := d.str()
	var key string
	if d.expect(':'); !plain {
		key = unmarshal[string](d, tok)
	}
	for f, name := range names {
		if d.err == nil && (plain && match(tok[1:len(tok)-1], name, caseBit) || !plain && strings.EqualFold(key, name)) {
			if *seen&(1<<f) != 0 {
				d.fail(fmt.Errorf("field %q repeated", name))
			}
			*seen |= 1 << f
			return name
		}
	}
	return ""
}

// skip consumes one value, which nests at depth if it is an object or
// array, and returns it. It finds the value's end by counting brackets
// outside strings and refuses nesting past maxDepth; encoding/json checks
// the syntax of anything but a plain string.
func (d *frameDecoder) skip(depth int) []byte {
	c := d.at()
	start := d.pos
	switch {
	case c == '"':
		if tok, plain := d.str(); plain {
			return tok
		}
	case c == '{' || c == '[':
		for level := 0; d.err == nil && (level > 0 || d.pos == start); {
			switch d.at() {
			case '"':
				d.str()
				continue
			case '{', '[':
				if level++; depth+level-1 > maxDepth {
					d.fail(errDepth)
				}
			case '}', ']':
				level--
			case 0: // the frame ends inside the value, or a NUL byte is no better
				d.fail(errUnexpected)
				return nil
			}
			d.pos++
		}
	default: // a number or literal runs to the next delimiter
		for d.pos < len(d.data) && strings.IndexByte(",]} \t\n\r", d.data[d.pos]) < 0 {
			d.pos++
		}
	}
	raw := d.data[start:d.pos]
	if d.err == nil && !json.Valid(raw) {
		d.fail(errUnexpected)
	}
	return raw
}

// more reports whether the object or array being read has an i-th
// member, consuming the comma before it or the bracket closing the lot.
// A member that is missing fails to decode.
func (d *frameDecoder) more(close byte, i int) bool {
	switch c := d.at(); {
	case d.err != nil:
		return false
	case c == close:
		d.pos++
		return false
	case i > 0 && c != ',':
		return d.fail(errUnexpected)
	case i > 0:
		d.pos++
	}
	return true
}

// str consumes a string token and returns it with its quotes. It is
// plain if it holds no escape, control character or byte >= 0x80: the
// bytes between its quotes are then its value.
func (d *frameDecoder) str() (tok []byte, plain bool) {
	if d.at() != '"' {
		return nil, d.fail(errUnexpected)
	}
	plain = true
	for i := d.pos + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			tok, d.pos = d.data[d.pos:i+1], i+1
			return tok, plain
		case c == '\\':
			i++ // an escaped quote does not end the string
			plain = false
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return nil, d.fail(errUnexpected)
}

// integer decodes an integer field as strconv.ParseInt decodes its
// token; null is 0.
func (d *frameDecoder) integer() int64 {
	c := d.at()
	if c == 'n' && d.lit("null") {
		return 0
	}
	limit := uint64(math.MaxInt64)
	if c == '-' {
		d.pos++
		limit++
	}
	data, start, p := d.data, d.pos, d.pos
	var n uint64
	for ; p < len(data) && data[p]-'0' <= 9 && p-start < 19; p++ {
		n = n*10 + uint64(data[p]-'0')
	}
	switch d.pos = p; {
	case p == start || p-start > 1 && data[start] == '0':
		d.fail(errUnexpected)
	case n > limit || p < len(data) && (data[p]-'0' <= 9 || data[p] == '.' || data[p]|caseBit == 'e'):
		d.fail(errInt) // out of range, or a fraction or exponent follows
	}
	if c == '-' {
		return -int64(n)
	}
	return int64(n)
}

// at skips space and returns the next byte, or 0 at the end.
func (d *frameDecoder) at() byte {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// lit consumes s if it comes next after any space.
func (d *frameDecoder) lit(s string) bool {
	ok := d.at() == s[0] && len(d.data)-d.pos >= len(s) && match(d.data[d.pos:d.pos+len(s)], s, 0)
	if ok {
		d.pos += len(s)
	}
	return ok
}

// expect consumes c, which must come next after any space.
func (d *frameDecoder) expect(c byte) {
	if d.at() != c {
		d.fail(errUnexpected)
		return
	}
	d.pos++
}

// fail records the first error, with where it struck; it returns false
// for callers' convenience.
func (d *frameDecoder) fail(err error) bool {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d", err, d.pos)
	}
	return false
}

// match reports whether b, each byte ORed with mask, spells s: exactly
// for mask 0; for caseBit, up to ASCII case when s is lower-case letters.
func match(b []byte, s string, mask byte) bool {
	ok := len(b) == len(s)
	for i := 0; ok && i < len(b); i++ {
		ok = b[i]|mask == s[i]
	}
	return ok
}
