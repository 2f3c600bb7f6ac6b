package server

import (
	"errors"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxEvalBodyBytes bounds one /v1/eval request body. A larger body is
// answered 413 and its connection closed.
const MaxEvalBodyBytes = 1 << 20

// The /v1/eval wire format. The request body is one JSON object:
//
//	{"doc": "<fingerprint>", "queries": ["<xpath>", ...], "engine": "<name>"}
//
// decoded with encoding/json's rules for a struct with those three
// fields: keys match case-insensitively, a repeated key overwrites the
// earlier one, null leaves a string field unchanged and empties the
// query list, unknown keys are skipped, and bytes after the object are
// ignored. The response body is
//
//	{"doc":"…","engine":"…","results":[{"query":"…","kind":"…","value":"…","card":N,"ords":[…],"err":"…","err_kind":"…"},…],"wall_us":N}
//
// followed by a newline, with kind, value, ords, err and err_kind
// omitted when empty and strings escaped as encoding/json's Encoder
// escapes them (HTML characters, U+2028/U+2029 and invalid UTF-8
// included). FuzzEvalCodec holds both directions byte-for-byte to
// encoding/json.

// evalCodec is the pooled per-request scratch of /v1/eval: the request
// body, the decoded request and the encoded response. Nothing in it
// outlives the request except the query strings, which are allocated.
type evalCodec struct {
	body []byte
	// strs holds the decoded doc and engine strings (and the last
	// decoded key); doc and engine are spans of it.
	strs        []byte
	doc, engine span
	queries     []string
	out         []byte
	// ords is the scratch list of a node-set result's ordinals.
	ords []int
}

// span is a [start, end) range of evalCodec.strs.
type span struct{ start, end int }

// maxPooledBytes caps the buffers a codec keeps when it returns to the
// pool, so one large request does not pin its buffers for later ones.
const maxPooledBytes = 64 << 10

var codecPool = sync.Pool{New: func() any { return new(evalCodec) }}

func getCodec() *evalCodec { return codecPool.Get().(*evalCodec) }

func putCodec(c *evalCodec) {
	if cap(c.body) > maxPooledBytes {
		c.body = nil
	}
	if cap(c.strs) > maxPooledBytes {
		c.strs = nil
	}
	if cap(c.out) > maxPooledBytes {
		c.out = nil
	}
	if cap(c.queries) > DefaultMaxBatchQueries {
		c.queries = nil
	}
	codecPool.Put(c)
}

// docBytes and engineBytes return the decoded doc and engine fields.
func (c *evalCodec) docBytes() []byte    { return c.strs[c.doc.start:c.doc.end] }
func (c *evalCodec) engineBytes() []byte { return c.strs[c.engine.start:c.engine.end] }

// errBodyTooLarge reports a request body over MaxEvalBodyBytes.
var errBodyTooLarge = errors.New("request body too large")

// readBody reads r to EOF into c.body, failing with errBodyTooLarge as
// soon as more than limit bytes arrive.
func (c *evalCodec) readBody(r io.Reader, limit int) error {
	b := c.body[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		// Never ask for more than one byte past the limit.
		end := min(cap(b), limit+1)
		n, err := r.Read(b[len(b):end])
		b = b[:len(b)+n]
		c.body = b
		if len(b) > limit {
			return errBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode parses c.body into the request fields. It accepts and rejects
// exactly what encoding/json's Decoder.Decode accepts and rejects for a
// struct {Doc string; Queries []string; Engine string} with the keys
// "doc", "queries" and "engine" — one JSON value read from the stream,
// syntax checked through the end of that value — and yields the same
// field values.
func (c *evalCodec) decode() error {
	c.strs = c.strs[:0]
	c.doc, c.engine = span{}, span{}
	d := decoder{c: c, buf: c.body}
	d.dropQueries()
	d.skipSpace()
	if d.pos == len(d.buf) {
		return d.fail("empty body")
	}
	switch d.buf[d.pos] {
	case '{':
		return d.object()
	case 'n':
		// A top-level null decodes into nothing; whatever follows its
		// last letter is never read.
		return d.literal("null")
	default:
		return d.fail("request is not a JSON object")
	}
}

// decoder is one pass of evalCodec.decode over the body.
type decoder struct {
	c   *evalCodec
	buf []byte
	pos int
}

// maxNesting is encoding/json's nesting bound on arrays and objects.
const maxNesting = 10000

// decodeError is a malformed eval body: what was wrong and where.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string {
	return e.msg + " at offset " + strconv.Itoa(e.off)
}

func (d *decoder) fail(msg string) error { return &decodeError{msg: msg, off: d.pos} }

func (d *decoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// expect consumes byte b after optional whitespace.
func (d *decoder) expect(b byte) error {
	d.skipSpace()
	if d.pos == len(d.buf) || d.buf[d.pos] != b {
		return d.fail("expected " + strconv.QuoteRune(rune(b)))
	}
	d.pos++
	return nil
}

// The fields of the request object, as matched by fieldOf.
const (
	fieldUnknown = iota
	fieldDoc
	fieldQueries
	fieldEngine
)

// object decodes the top-level request object; d.pos is at its '{'.
func (d *decoder) object() error {
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		return nil
	}
	for {
		d.skipSpace()
		if d.pos == len(d.buf) || d.buf[d.pos] != '"' {
			return d.fail("expected an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		field := fieldOf(d.c.strs[key.start:key.end])
		d.c.strs = d.c.strs[:key.start] // the key's bytes are scratch
		if err := d.expect(':'); err != nil {
			return err
		}
		d.skipSpace()
		switch field {
		case fieldDoc:
			err = d.stringField(&d.c.doc)
		case fieldEngine:
			err = d.stringField(&d.c.engine)
		case fieldQueries:
			err = d.queries()
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.pos == len(d.buf) {
			return d.fail("unterminated object")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case '}':
			return nil
		default:
			return d.fail("expected ',' or '}'")
		}
	}
}

// fieldOf matches a decoded key the way encoding/json matches struct
// field names: exactly, or else under its case folding (ASCII letters
// upper-cased, other runes mapped to the smallest rune of their
// Unicode fold orbit, so "ſ" matches "s").
func fieldOf(key []byte) int {
	switch {
	case foldEqual(key, "DOC"):
		return fieldDoc
	case foldEqual(key, "QUERIES"):
		return fieldQueries
	case foldEqual(key, "ENGINE"):
		return fieldEngine
	}
	return fieldUnknown
}

// foldEqual reports whether key folds to upper, an upper-case ASCII
// name.
func foldEqual(key []byte, upper string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		i += n
		if j == len(upper) || r != rune(upper[j]) {
			return false
		}
	}
	return j == len(upper)
}

// foldRune returns the smallest rune of r's Unicode simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// stringField decodes a string value into dst; null leaves dst as it
// is, and any other value rejects the request.
func (d *decoder) stringField(dst *span) error {
	if d.pos == len(d.buf) {
		return d.fail("unexpected end of input")
	}
	switch d.buf[d.pos] {
	case '"':
		s, err := d.str()
		*dst = s
		return err
	case 'n':
		return d.literal("null")
	}
	return d.fail("expected a string")
}

// queries decodes the query list. It mirrors encoding/json decoding
// into a []string that already holds the earlier value of a repeated
// key: elements overwrite in place, a null element leaves the slot as
// it was, the list is cut to the array's length, and [] or null drop
// it.
func (d *decoder) queries() error {
	if d.pos == len(d.buf) {
		return d.fail("unexpected end of input")
	}
	switch d.buf[d.pos] {
	case 'n':
		d.dropQueries()
		return d.literal("null")
	case '[':
	default:
		return d.fail("expected an array of strings")
	}
	d.pos++
	qs := d.c.queries
	i := 0
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == ']' {
		d.pos++
		d.dropQueries()
		return nil
	}
	for {
		d.skipSpace()
		if d.pos == len(d.buf) {
			return d.fail("unterminated array")
		}
		if i == len(qs) {
			if i < cap(qs) {
				qs = qs[:i+1]
			} else {
				qs = append(qs, "")
			}
		}
		switch d.buf[d.pos] {
		case '"':
			s, err := d.str()
			if err != nil {
				return err
			}
			qs[i] = string(d.c.strs[s.start:s.end])
			d.c.strs = d.c.strs[:s.start]
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.fail("expected a string")
		}
		i++
		d.skipSpace()
		if d.pos == len(d.buf) {
			return d.fail("unterminated array")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.c.queries = qs[:i]
			return nil
		default:
			return d.fail("expected ',' or ']'")
		}
	}
}

// dropQueries empties the query list and forgets its earlier elements,
// as encoding/json does when it replaces the slice.
func (d *decoder) dropQueries() {
	clear(d.c.queries[:cap(d.c.queries)])
	d.c.queries = d.c.queries[:0]
}

// literal consumes the keyword lit.
func (d *decoder) literal(lit string) error {
	if len(d.buf)-d.pos < len(lit) || string(d.buf[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// str decodes the string at d.pos (its opening quote) onto c.strs and
// returns its span. Escapes, surrogate pairs and invalid UTF-8 decode as
// encoding/json decodes them: a lone or mismatched surrogate escape and
// every byte of invalid UTF-8 become U+FFFD. On error c.strs is left as
// it was; the request is rejected anyway.
func (d *decoder) str() (span, error) {
	d.pos++
	b := d.c.strs
	start := len(b)
	for {
		if d.pos == len(d.buf) {
			return span{}, d.fail("unterminated string")
		}
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.c.strs = b
			return span{start, len(b)}, nil
		case c == '\\':
			if d.pos+1 == len(d.buf) {
				return span{}, d.fail("unterminated string")
			}
			switch e := d.buf[d.pos+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.buf[d.pos+2:])
				if r < 0 {
					return span{}, d.fail("invalid \\u escape")
				}
				d.pos += 6
				if utf16.IsSurrogate(r) {
					if r2 := escapedRune(d.buf[d.pos:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							d.pos += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return span{}, d.fail("invalid escape")
			}
			d.pos += 2
		case c < ' ':
			return span{}, d.fail("control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, n := utf8.DecodeRune(d.buf[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += n
		}
	}
}

// escapedRune reads a following \uXXXX escape, or -1 when there is none.
func escapedRune(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip validates and steps over one JSON value of an unknown key;
// depth counts the arrays and objects it sits in, the request object
// included.
func (d *decoder) skip(depth int) error {
	if d.pos == len(d.buf) {
		return d.fail("unexpected end of input")
	}
	switch c := d.buf[d.pos]; {
	case c == '"':
		s, err := d.str()
		d.c.strs = d.c.strs[:s.start]
		return err
	case c == '{' || c == '[':
		if depth == maxNesting {
			return d.fail("exceeded max depth")
		}
		return d.container(depth + 1)
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.fail("invalid value")
}

// container steps over the array or object at d.pos.
func (d *decoder) container(depth int) error {
	closer, isObject := byte(']'), d.buf[d.pos] == '{'
	if isObject {
		closer = '}'
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == closer {
		d.pos++
		return nil
	}
	for {
		d.skipSpace()
		if isObject {
			if d.pos == len(d.buf) || d.buf[d.pos] != '"' {
				return d.fail("expected an object key")
			}
			s, err := d.str()
			d.c.strs = d.c.strs[:s.start]
			if err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			d.skipSpace()
		}
		if err := d.skip(depth); err != nil {
			return err
		}
		d.skipSpace()
		if d.pos == len(d.buf) {
			return d.fail("unterminated value")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case closer:
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or a closing bracket")
		}
	}
}

// number steps over a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case d.digits() == 0:
		return d.fail("invalid number")
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return d.fail("invalid number")
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return d.fail("invalid number")
		}
	}
	return nil
}

func (d *decoder) digits() int {
	n := 0
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
		n++
	}
	return n
}

// The response encoder. Each method appends to c.out.

// beginResponse starts the response object up to the results array.
func (c *evalCodec) beginResponse(doc []byte, engine string) {
	b := append(c.out[:0], `{"doc":`...)
	b = appendJSONString(b, doc)
	b = append(b, `,"engine":`...)
	b = appendJSONString(b, engine)
	c.out = append(b, `,"results":[`...)
}

// wireResult is one query's outcome on the wire: the fields of a
// result object, with ords holding the first node ordinals of a
// node-set. countValue renders the value as "<card> nodes" instead of
// value.
type wireResult struct {
	query, kind, value string
	countValue         bool
	card               int
	ords               []int
	err, errKind       string
}

// appendResult appends one result object; first is false for every
// result after the first.
func (c *evalCodec) appendResult(r *wireResult, first bool) {
	b := c.out
	if !first {
		b = append(b, ',')
	}
	b = append(b, `{"query":`...)
	b = appendJSONString(b, r.query)
	if r.kind != "" {
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, r.kind)
	}
	if r.countValue {
		b = append(b, `,"value":"`...)
		b = strconv.AppendInt(b, int64(r.card), 10)
		b = append(b, ` nodes"`...)
	} else if r.value != "" {
		b = append(b, `,"value":`...)
		b = appendJSONString(b, r.value)
	}
	b = append(b, `,"card":`...)
	b = strconv.AppendInt(b, int64(r.card), 10)
	if len(r.ords) > 0 {
		b = append(b, `,"ords":[`...)
		for i, o := range r.ords {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(o), 10)
		}
		b = append(b, ']')
	}
	if r.err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, r.err)
	}
	if r.errKind != "" {
		b = append(b, `,"err_kind":`...)
		b = appendJSONString(b, r.errKind)
	}
	c.out = append(b, '}')
}

// endResponse closes the results array and the response object.
func (c *evalCodec) endResponse(wallUs int64) {
	b := append(c.out, `],"wall_us":`...)
	b = strconv.AppendInt(b, wallUs, 10)
	c.out = append(b, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal escaped exactly as
// encoding/json's Encoder escapes it with HTML escaping on: quote and
// backslash, control characters (\b, \f, \n, \r, \t by name, the rest
// as \u00XX), '<', '>' and '&' as \u003c, \u003e and \u0026, U+2028
// and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
