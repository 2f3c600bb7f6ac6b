package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// The byte-level XML scanner behind Parse. It accepts exactly the XML
// that encoding/xml's Decoder.Token accepts in its default (strict,
// no CharsetReader, no extra entities) configuration, and keeps exactly
// what the namespace-free data model keeps of it (DESIGN.md §7), but it
// writes the document straight into the flat per-node arrays the
// columnar backend stores: one pass over the input numbers every node
// (pre/post order from an explicit stack, so nesting depth costs no Go
// stack), interns every name once, copies character data into one blob
// and computes the content fingerprint in the same pre-order
// fingerprintDocument walks. The encoding/xml parser survives in the
// tests as the oracle the scanner is checked against.

// Scanner limits: pooled scanners that grew past these are dropped
// rather than kept for reuse.
const (
	maxPooledNodes = 1 << 20
	maxPooledBytes = 8 << 20
)

var scanPool = sync.Pool{New: func() any { return new(scanner) }}

// scanner is the parse state of one document. Scanners are pooled: the
// arrays keep their capacity across parses, and every result the
// caller keeps is copied out of them.
type scanner struct {
	flat
	src       []byte
	keepSpace bool

	// readBuf holds the input read from an io.Reader.
	readBuf []byte
	// blob is the character data of the nodes, in document order.
	blob []byte
	// nameBuf and nameOff are the interned name table: name id i is
	// nameBuf[nameOff[i]:nameOff[i+1]].
	nameBuf []byte
	nameOff []uint32
	// nameIDs maps a name to its id; qnames maps a raw (possibly
	// prefixed) element or attribute name to its qinfo entry. The keys
	// alias src, so both maps are cleared when a parse ends.
	nameIDs map[string]int32
	qnames  map[string]int32
	qinfo   []qname
	// qrecent is a direct-mapped cache in front of qnames: documents
	// repeat a few tag names, and a hit costs one short compare.
	qrecent [256]qrecent

	// stack holds the root and the open elements; attrs the attributes
	// of the start tag being scanned; ns the in-scope xmlns:p
	// declarations.
	stack []frame
	attrs []rawAttr
	ns    []nsBinding

	// n is the number of nodes so far. While scanning, the arrays share
	// one length, at least n (dataOff is one longer); run trims them to
	// n.
	n           int
	fp          uint64 // running FNV-1a fingerprint
	preN, postN int32
	pendingText int32 // ord of the last text node while it may still grow, else -1
	seenElement bool
}

// qname is what the scanner knows about one raw element or attribute
// name.
type qname struct {
	// label is the name id of the local part, or -1 when the local part
	// is not usable as a name of its own (validFlatName).
	label int32
	// plen is the length of the prefix (0 when unprefixed); the local
	// part starts at plen+1.
	plen int32
	// drop marks attribute names the parser never keeps: xmlns and
	// xmlns:p declarations, and the name "xmlns:".
	drop bool
}

type qrecent struct {
	raw string // aliases src
	q   int32
}

// frame is one open element.
type frame struct {
	// nameLo and nameLen locate the raw start-tag name in src (the end
	// tag must repeat it byte for byte).
	nameLo  int
	nameLen int32
	ord     int32
	last    int32 // last child ord, -1 before the first child
	// nsLen is len(scanner.ns) when the element opened.
	nsLen int32
}

// rawAttr is one attribute of the start tag being scanned: its raw name
// in src and its decoded value in blob.
type rawAttr struct {
	q              int32 // qinfo index
	nameLo, nameHi int
	valLo, valHi   int
}

// nsBinding is one in-scope xmlns:p declaration; only whether it binds
// p to the URI "xmlns" matters (such a prefix marks attributes that
// encoding/xml reports in the xmlns space, which the parser drops).
type nsBinding struct {
	prefix string
	xmlns  bool
}

// parse scans src into a document of the given backend. src is only
// read, never retained.
func parse(src []byte, keepSpace bool, backend string) (*Document, error) {
	if !ValidBackend(backend) {
		return nil, fmt.Errorf("xmltree: unknown document backend %q", backend)
	}
	s := scanPool.Get().(*scanner)
	defer s.release()
	return s.parse(src, keepSpace, backend)
}

// parseReader reads r to the end and parses it. A read error is
// returned wrapped, so callers can still match it (errors.As).
func parseReader(r io.Reader, keepSpace bool, backend string) (*Document, error) {
	if !ValidBackend(backend) {
		return nil, fmt.Errorf("xmltree: unknown document backend %q", backend)
	}
	s := scanPool.Get().(*scanner)
	defer s.release()
	buf, err := readAll(r, s.readBuf[:0])
	s.readBuf = buf
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return s.parse(buf, keepSpace, backend)
}

func (s *scanner) parse(src []byte, keepSpace bool, backend string) (*Document, error) {
	// Every node takes at least one input byte and decoding never grows
	// character data, so this bound keeps ords within int32 and data
	// offsets within uint32.
	if len(src) >= math.MaxInt32 {
		return nil, fmt.Errorf("xmltree: parse: a document of %d bytes exceeds the %d-byte limit", len(src), math.MaxInt32-1)
	}
	s.reset(src, keepSpace)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.document(backend)
}

// readAll appends r's content to buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 512 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *scanner) reset(src []byte, keepSpace bool) {
	s.src = src
	s.keepSpace = keepSpace
	s.n = 0
	// Reopen the arrays to one common length (their capacities may
	// differ by allocation rounding).
	size := max(0, min(cap(s.kind), cap(s.label), cap(s.parent), cap(s.firstChild),
		cap(s.nextSibling), cap(s.pre), cap(s.post), cap(s.dataOff)-1))
	s.kind, s.label, s.parent = s.kind[:size], s.label[:size], s.parent[:size]
	s.firstChild, s.nextSibling = s.firstChild[:size], s.nextSibling[:size]
	s.pre, s.post = s.pre[:size], s.post[:size]
	s.dataOff = s.dataOff[:min(size+1, cap(s.dataOff))]
	s.blob = s.blob[:0]
	s.nameBuf = s.nameBuf[:0]
	s.nameOff = append(s.nameOff[:0], 0)
	if s.nameIDs == nil {
		s.nameIDs = make(map[string]int32)
		s.qnames = make(map[string]int32)
	}
	s.qinfo = s.qinfo[:0]
	s.stack = s.stack[:0]
	s.attrs = s.attrs[:0]
	s.ns = s.ns[:0]
	s.fp = fnvOffset64
	s.preN, s.postN = 0, 0
	s.pendingText = -1
	s.seenElement = false
}

// release returns the scanner to the pool unless it grew too large to
// be worth keeping. Nothing it holds may alias the caller's input.
func (s *scanner) release() {
	s.src = nil
	clear(s.nameIDs)
	clear(s.qnames)
	clear(s.qrecent[:])
	clear(s.ns)
	if cap(s.kind) > maxPooledNodes || cap(s.blob) > maxPooledBytes || cap(s.readBuf) > maxPooledBytes {
		return
	}
	scanPool.Put(s)
}

// syntaxError reports a malformed input at byte offset pos.
func (s *scanner) syntaxError(pos int, msg string) error {
	if pos > len(s.src) {
		pos = len(s.src)
	}
	line := 1 + bytes.Count(s.src[:pos], []byte{'\n'})
	return fmt.Errorf("xmltree: parse: XML syntax error on line %d: %s", line, msg)
}

func (s *scanner) eof() error { return s.syntaxError(len(s.src), "unexpected EOF") }

// run scans the whole input.
func (s *scanner) run() error {
	src := s.src
	s.addNode(RootNode, -1, -1)
	s.preN++
	s.stack = append(s.stack, frame{ord: 0, last: -1})
	s.fp = fnvByte(s.fp, byte(RootNode))
	s.fp = fnvString(s.fp, "")
	s.fp = fnvString(s.fp, "")
	s.fp = fnvByte(s.fp, '(')
	var err error
	for i := 0; i < len(src) && err == nil; {
		if src[i] != '<' {
			start := len(s.blob)
			var n int
			if n, err = s.decode(i, src[i:], textMode, 0); err == nil {
				s.charData(start)
				i += n
			}
			continue
		}
		if i+1 >= len(src) {
			return s.eof()
		}
		switch src[i+1] {
		case '/':
			i, err = s.endTag(i + 2)
		case '?':
			i, err = s.procInst(i + 2)
		case '!':
			i, err = s.bang(i + 2)
		default:
			i, err = s.startTag(i + 1)
		}
	}
	if err != nil {
		return err
	}
	if open := len(s.stack) - 1; open > 0 {
		return fmt.Errorf("xmltree: parse: XML syntax error: unexpected EOF: %d unclosed element(s)", open)
	}
	if !s.seenElement {
		return fmt.Errorf("xmltree: parse: document has no element")
	}
	s.fp = fnvByte(s.fp, ')')
	s.post[0] = s.postN
	n := s.n
	s.kind, s.label, s.parent = s.kind[:n], s.label[:n], s.parent[:n]
	s.firstChild, s.nextSibling = s.firstChild[:n], s.nextSibling[:n]
	s.pre, s.post = s.pre[:n], s.post[:n]
	s.dataOff = s.dataOff[:n+1]
	s.dataOff[n] = uint32(len(s.blob))
	return nil
}

// addNode appends a node to the arrays and returns its ord. Its data
// starts at the current end of the blob.
func (s *scanner) addNode(k NodeType, label, parent int32) int32 {
	ord := s.n
	if ord == len(s.kind) {
		s.grow()
	}
	s.n++
	s.kind[ord] = k
	s.label[ord] = label
	s.parent[ord] = parent
	s.firstChild[ord] = -1
	s.nextSibling[ord] = -1
	s.pre[ord] = s.preN
	s.post[ord] = 0
	s.dataOff[ord] = uint32(len(s.blob))
	return int32(ord)
}

// grow doubles the capacity of the node arrays.
func (s *scanner) grow() {
	size := max(2*len(s.kind), 256)
	grow := func(a []int32) []int32 { return append(a[:s.n], make([]int32, size-s.n)...) }
	s.kind = append(s.kind[:s.n], make([]NodeType, size-s.n)...)
	s.label = grow(s.label)
	s.parent = grow(s.parent)
	s.firstChild = grow(s.firstChild)
	s.nextSibling = grow(s.nextSibling)
	s.pre = grow(s.pre)
	s.post = grow(s.post)
	s.dataOff = append(s.dataOff[:s.n], make([]uint32, size+1-s.n)...)
}

// addChild appends a tree node as the last child of the innermost open
// element (or of the root) and gives it the next pre number.
func (s *scanner) addChild(k NodeType, label int32) int32 {
	top := &s.stack[len(s.stack)-1]
	ord := s.addNode(k, label, top.ord)
	s.preN++
	if top.last < 0 {
		s.firstChild[top.ord] = ord
	} else {
		s.nextSibling[top.last] = ord
	}
	top.last = ord
	return ord
}

// addLeaf appends a text, comment or PI node, which is complete at
// once: it takes the next post number too.
func (s *scanner) addLeaf(k NodeType, label int32) int32 {
	ord := s.addChild(k, label)
	s.post[ord] = s.postN
	s.postN++
	return ord
}

// flushText closes the pending text node: nothing more can coalesce
// into it, so its fingerprint contribution is final.
func (s *scanner) flushText() {
	if t := s.pendingText; t >= 0 {
		s.fp = fnvLeaf(s.fp, TextNode, nil, s.blob[s.dataOff[t]:])
		s.pendingText = -1
	}
}

// Character-data decoding modes.
const (
	textMode  = iota // content between markup: entities, "]]>" is an error
	attrMode         // a quoted attribute value: entities, "<" is an error
	cdataMode        // a CDATA section: no entities
)

// stopBytes[mode][b] marks the bytes the decoder must look at in that
// mode; every other byte is copied through.
var stopBytes = func() (t [3][256]bool) {
	for m := range t {
		for b := 0; b < 256; b++ {
			t[m][b] = b >= utf8.RuneSelf || (b < 0x20 && b != '\t' && b != '\n')
		}
	}
	t[textMode]['&'], t[textMode]['>'], t[textMode]['<'] = true, true, true
	t[attrMode]['&'], t[attrMode]['<'], t[attrMode]['"'], t[attrMode]['\''] = true, true, true, true
	return t
}()

// decode appends the character data at the start of span to the blob:
// entities resolved (text and attribute modes), "\r\n" and "\r" turned
// into "\n", and every rune checked to be valid UTF-8 inside XML's Char
// range. It stops at the end of span or at the terminator, '<' in text
// mode and the quote byte in attribute mode, and returns the number of
// bytes consumed. at is span's offset in src.
func (s *scanner) decode(at int, span []byte, mode int, quote byte) (int, error) {
	stop := &stopBytes[mode]
	blob := s.blob
	i := 0
	for i < len(span) {
		j := i
		for j < len(span) && !stop[span[j]] {
			j++
		}
		blob = append(blob, span[i:j]...)
		if j == len(span) {
			i = j
			break
		}
		switch c := span[j]; {
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(span[j:])
			if r == utf8.RuneError && size == 1 {
				return 0, s.syntaxError(at+j, "invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return 0, s.syntaxError(at+j, fmt.Sprintf("illegal character code %U", r))
			}
			blob = append(blob, span[j:j+size]...)
			i = j + size
		case c == '&':
			r, n := entity(span[j:])
			if n == 0 {
				return 0, s.syntaxError(at+j, "invalid character entity")
			}
			blob = utf8.AppendRune(blob, r)
			i = j + n
		case c == '\r':
			blob = append(blob, '\n')
			i = j + 1
			if i < len(span) && span[i] == '\n' {
				i++
			}
		case c == '>':
			if j >= 2 && span[j-2] == ']' && span[j-1] == ']' {
				return 0, s.syntaxError(at+j, "unescaped ]]> not in CDATA section")
			}
			blob = append(blob, '>')
			i = j + 1
		case c == '<':
			if mode == attrMode {
				return 0, s.syntaxError(at+j, "unescaped < inside quoted string")
			}
			s.blob = blob
			return j, nil
		case c == '"' || c == '\'':
			if c == quote {
				s.blob = blob
				return j, nil
			}
			blob = append(blob, c)
			i = j + 1
		default:
			return 0, s.syntaxError(at+j, fmt.Sprintf("illegal character code %U", rune(c)))
		}
	}
	s.blob = blob
	return i, nil
}

// entity resolves the entity or character reference at the start of b
// (b[0] == '&'): the five predefined entities and decimal (&#N;) or
// lower-case-x hexadecimal (&#xN;) references to a Char. It returns
// the rune and the reference's length, or n == 0 when it is malformed.
// A reference to a surrogate yields U+FFFD, as in encoding/xml.
func entity(b []byte) (r rune, n int) {
	if len(b) > 1 && b[1] == '#' {
		i, base := 2, uint32(10)
		if i < len(b) && b[i] == 'x' {
			i, base = 3, 16
		}
		start := i
		v := uint32(0)
		for ; i < len(b); i++ {
			d := uint32(hexVal[b[i]])
			if d >= base {
				break
			}
			if v <= unicode.MaxRune {
				v = v*base + d
			}
		}
		if i == start || i == len(b) || b[i] != ';' || v > unicode.MaxRune {
			return 0, 0
		}
		r = rune(v)
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError
		}
		if !isXMLChar(r) {
			return 0, 0
		}
		return r, i + 1
	}
	for _, e := range predefinedEntities {
		if len(b) > len(e.name) && string(b[1:1+len(e.name)]) == e.name {
			return e.r, 1 + len(e.name)
		}
	}
	return 0, 0
}

var predefinedEntities = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// hexVal is the digit value of a byte (16 for non-digits).
var hexVal = func() (t [256]uint8) {
	for b := range t {
		t[b] = 16
	}
	for b := '0'; b <= '9'; b++ {
		t[b] = uint8(b - '0')
	}
	for b := 'a'; b <= 'f'; b++ {
		t[b] = uint8(b - 'a' + 10)
		t[b-'a'+'A'] = uint8(b - 'a' + 10)
	}
	return t
}()

// isXMLChar reports whether r is in XML's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// charData settles one character-data token (a text run or a CDATA
// section) just decoded into blob[start:]: dropped when it is
// whitespace-only (unless keepSpace) or outside every element, merged
// into the pending text node when one is open, and made a new text
// node otherwise.
func (s *scanner) charData(start int) {
	if len(s.stack) == 1 || (!s.keepSpace && spaceOnly(s.blob[start:])) {
		s.blob = s.blob[:start]
		return
	}
	if s.pendingText >= 0 {
		return // the data already extends the pending node's
	}
	ord := s.addLeaf(TextNode, -1)
	s.dataOff[ord] = uint32(start)
	s.pendingText = ord
}

// spaceOnly reports whether b (valid UTF-8) is empty or all white space
// in the sense of strings.TrimSpace.
func spaceOnly(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '\v' && c != '\f' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}

// nameByte marks the bytes encoding/xml reads as part of a name: the
// ASCII name characters and every byte of a multi-byte rune (whose
// runes are then checked against the name tables).
var nameByte = func() (t [256]bool) {
	for b := 0; b < 256; b++ {
		t[b] = 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-' || b >= utf8.RuneSelf
	}
	return t
}()

// scanName returns the end of the name starting at i (i itself when
// there is none).
func (s *scanner) scanName(i int) int {
	src := s.src
	for i < len(src) && nameByte[src[i]] {
		i++
	}
	return i
}

// isXMLName reports whether b, a run of name bytes, is an XML name.
func isXMLName(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if i == 0 && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if !unicode.Is(xmlNameStart, r) && (i == 0 || !unicode.Is(xmlNameChar, r)) {
			return false
		}
		i += size
	}
	return len(b) > 0
}

func (s *scanner) skipSpace(i int) int {
	src := s.src
	for i < len(src) {
		switch src[i] {
		case ' ', '\r', '\n', '\t':
			i++
		default:
			return i
		}
	}
	return i
}

// aliasString views b as a string without copying; the scanner uses it
// for map keys that live no longer than the parse.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// intern returns the id of the name b, adding it to the table on first
// sight.
func (s *scanner) intern(b []byte) int32 {
	if id, ok := s.nameIDs[aliasString(b)]; ok {
		return id
	}
	id := int32(len(s.nameOff) - 1)
	s.nameBuf = append(s.nameBuf, b...)
	s.nameOff = append(s.nameOff, uint32(len(s.nameBuf)))
	s.nameIDs[aliasString(b)] = id
	return id
}

// qname returns the qinfo index of the raw element or attribute name
// src[lo:hi], or -1 when it is not an XML name with at most one colon.
func (s *scanner) qname(lo, hi int) int32 {
	raw := s.src[lo:hi]
	recent := &s.qrecent[(uint(len(raw))*131+uint(raw[0])*31+uint(raw[len(raw)-1]))&255]
	if recent.raw == aliasString(raw) {
		return recent.q
	}
	q, ok := s.qnames[aliasString(raw)]
	if !ok {
		q = s.newQname(raw)
	}
	if q >= 0 {
		*recent = qrecent{aliasString(raw), q}
	}
	return q
}

// newQname classifies a raw name seen for the first time and records
// it, or returns -1 when it is not an XML name with at most one colon.
func (s *scanner) newQname(raw []byte) int32 {
	if !isXMLName(raw) || bytes.Count(raw, []byte{':'}) > 1 {
		return -1
	}
	var info qname
	local := raw
	if c := bytes.IndexByte(raw, ':'); c > 0 && c < len(raw)-1 {
		info.plen = int32(c)
		local = raw[c+1:]
	}
	prefix := raw[:info.plen]
	info.drop = string(prefix) == "xmlns" || string(raw) == "xmlns" || string(raw) == "xmlns:"
	info.label = -1
	if validFlatName(string(local)) {
		info.label = s.intern(local)
	}
	q := int32(len(s.qinfo))
	s.qinfo = append(s.qinfo, info)
	s.qnames[aliasString(raw)] = q
	return q
}

// startTag scans the start tag whose name begins at i (just after the
// '<') and returns the offset after it.
func (s *scanner) startTag(i int) (int, error) {
	src := s.src
	nameLo := i
	nameHi := s.scanName(i)
	if nameHi == nameLo {
		return 0, s.syntaxError(i, "expected element name after <")
	}
	q := s.qname(nameLo, nameHi)
	if q < 0 {
		return 0, s.syntaxError(i, "invalid XML name: "+string(src[nameLo:nameHi]))
	}
	elem := s.qinfo[q]
	if elem.label < 0 {
		return 0, fmt.Errorf("xmltree: parse: element name %q is not usable in the namespace-free data model (DESIGN.md §7)", src[nameHi-localLen(elem, nameLo, nameHi):nameHi])
	}
	// The pending text ends here; the attribute values go to the blob
	// after it.
	s.flushText()
	valStart := len(s.blob)
	s.attrs = s.attrs[:0]
	empty, special := false, false
	i = nameHi
	for {
		i = s.skipSpace(i)
		if i >= len(src) {
			return 0, s.eof()
		}
		if c := src[i]; c == '/' {
			if i+1 >= len(src) {
				return 0, s.eof()
			}
			if src[i+1] != '>' {
				return 0, s.syntaxError(i, "expected /> in element")
			}
			empty = true
			i += 2
			break
		} else if c == '>' {
			i++
			break
		}
		a := rawAttr{nameLo: i, nameHi: s.scanName(i)}
		if a.nameHi == a.nameLo {
			return 0, s.syntaxError(i, "expected attribute name in element")
		}
		if a.q = s.qname(a.nameLo, a.nameHi); a.q < 0 {
			return 0, s.syntaxError(i, "invalid XML name: "+string(src[a.nameLo:a.nameHi]))
		}
		if info := s.qinfo[a.q]; info.drop || info.plen > 0 || info.label < 0 {
			special = true // keepAttrs must look at the namespaces
		}
		i = s.skipSpace(a.nameHi)
		if i >= len(src) {
			return 0, s.eof()
		}
		if src[i] != '=' {
			return 0, s.syntaxError(i, "attribute name without = in element")
		}
		i = s.skipSpace(i + 1)
		if i >= len(src) {
			return 0, s.eof()
		}
		quote := src[i]
		if quote != '"' && quote != '\'' {
			return 0, s.syntaxError(i, "unquoted or missing attribute value in element")
		}
		a.valLo = len(s.blob)
		n, err := s.decode(i+1, src[i+1:], attrMode, quote)
		if err != nil {
			return 0, err
		}
		if i += 1 + n; i == len(src) {
			return 0, s.eof()
		}
		a.valHi = len(s.blob)
		s.attrs = append(s.attrs, a)
		i++
	}

	nsLen := len(s.ns)
	kept := s.attrs
	if special {
		var err error
		if kept, err = s.keepAttrs(); err != nil {
			return 0, err
		}
	}
	// The element, then its attributes at the next ords.
	ord := s.addChild(ElementNode, elem.label)
	s.dataOff[ord] = uint32(valStart)
	s.preN-- // attributes share the element's pre number
	h := fnvByte(s.fp, byte(ElementNode))
	h = fnvString(h, src[nameHi-localLen(elem, nameLo, nameHi):nameHi])
	h = fnvString(h, "")
	off := valStart
	for _, a := range kept {
		info := s.qinfo[a.q]
		at := s.addNode(AttributeNode, info.label, ord)
		s.dataOff[at] = uint32(off)
		// Kept values move down over dropped ones; the blob ends at
		// the last kept value.
		n := a.valHi - a.valLo
		if off != a.valLo {
			copy(s.blob[off:], s.blob[a.valLo:a.valHi])
		}
		h = fnvByte(h, 'A')
		h = fnvString(h, src[a.nameHi-localLen(info, a.nameLo, a.nameHi):a.nameHi])
		h = fnvString(h, s.blob[off:off+n])
		off += n
	}
	s.blob = s.blob[:off]
	s.preN++
	s.fp = fnvByte(h, '(')
	s.seenElement = true
	if empty {
		s.ns = s.ns[:nsLen]
		s.closeElement(ord)
		return i, nil
	}
	s.stack = append(s.stack, frame{nameLo: nameLo, nameLen: int32(nameHi - nameLo), ord: ord, last: -1, nsLen: int32(nsLen)})
	return i, nil
}

// localLen is the length of the local part of a raw name.
func localLen(info qname, lo, hi int) int {
	if info.plen > 0 {
		return hi - lo - int(info.plen) - 1
	}
	return hi - lo
}

// keepAttrs applies the start tag's namespace declarations and returns
// the attributes the data model keeps, in order. It drops what
// encoding/xml reports as namespace declarations (xmlns, xmlns:p, and
// the name "xmlns:") and every attribute whose prefix is bound to the
// URI "xmlns", which encoding/xml reports in the xmlns space too.
// Duplicate attributes are kept.
func (s *scanner) keepAttrs() ([]rawAttr, error) {
	src := s.src
	for _, a := range s.attrs {
		info := s.qinfo[a.q]
		if info.drop && info.plen > 0 { // xmlns:p="uri"
			s.ns = append(s.ns, nsBinding{
				prefix: string(src[a.nameLo+int(info.plen)+1 : a.nameHi]),
				xmlns:  string(s.blob[a.valLo:a.valHi]) == "xmlns",
			})
		}
	}
	kept := s.attrs[:0]
	for _, a := range s.attrs {
		info := s.qinfo[a.q]
		if info.drop {
			continue
		}
		if info.plen > 0 && len(s.ns) > 0 && s.boundToXMLNS(src[a.nameLo:a.nameLo+int(info.plen)]) {
			continue
		}
		if info.label < 0 {
			return nil, fmt.Errorf("xmltree: parse: attribute name %q is not usable in the namespace-free data model (DESIGN.md §7)", src[a.nameHi-localLen(info, a.nameLo, a.nameHi):a.nameHi])
		}
		kept = append(kept, a)
	}
	return kept, nil
}

// boundToXMLNS reports whether prefix is bound, in the current scope,
// to the URI "xmlns". The prefix "xml" never is: encoding/xml maps it
// to the XML namespace before consulting declarations.
func (s *scanner) boundToXMLNS(prefix []byte) bool {
	if string(prefix) == "xml" {
		return false
	}
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == string(prefix) {
			return s.ns[i].xmlns
		}
	}
	return false
}

// closeElement assigns the post number of an element and its
// attributes.
func (s *scanner) closeElement(ord int32) {
	s.fp = fnvByte(s.fp, ')')
	s.post[ord] = s.postN
	for a := int(ord) + 1; a < s.n && s.kind[a] == AttributeNode; a++ {
		s.post[a] = s.postN
	}
	s.postN++
}

// endTag scans the end tag whose name begins at i (after "</").
func (s *scanner) endTag(i int) (int, error) {
	src := s.src
	top := s.stack[len(s.stack)-1]
	open := src[top.nameLo : top.nameLo+int(top.nameLen)]
	lo, hi := i, i+len(open)
	// The end tag almost always repeats the open name: compare it in
	// place instead of scanning a name first.
	if len(s.stack) == 1 || hi > len(src) || !bytes.Equal(src[lo:hi], open) || hi < len(src) && nameByte[src[hi]] {
		if hi = s.scanName(i); hi == lo {
			if i >= len(src) {
				return 0, s.eof()
			}
			return 0, s.syntaxError(i, "expected element name after </")
		}
		if len(s.stack) == 1 {
			return 0, s.syntaxError(lo, "unexpected end element </"+string(src[lo:hi])+">")
		}
		return 0, s.syntaxError(lo, "element <"+string(open)+"> closed by </"+string(src[lo:hi])+">")
	}
	i = s.skipSpace(hi)
	if i >= len(src) {
		return 0, s.eof()
	}
	if src[i] != '>' {
		return 0, s.syntaxError(i, "invalid characters between </"+string(src[lo:hi])+" and >")
	}
	s.flushText()
	s.closeElement(top.ord)
	s.ns = s.ns[:top.nsLen]
	s.stack = s.stack[:len(s.stack)-1]
	return i + 1, nil
}

// procInst scans the processing instruction whose target begins at i
// (after "<?"). The XML declaration (target "xml") is checked and
// dropped; any other PI becomes a node.
func (s *scanner) procInst(i int) (int, error) {
	src := s.src
	lo, hi := i, s.scanName(i)
	if hi == lo {
		if i >= len(src) {
			return 0, s.eof()
		}
		return 0, s.syntaxError(i, "expected target name after <?")
	}
	if !isXMLName(src[lo:hi]) {
		return 0, s.syntaxError(i, "invalid XML name: "+string(src[lo:hi]))
	}
	i = s.skipSpace(hi)
	end := bytes.Index(src[i:], []byte("?>"))
	if end < 0 {
		return 0, s.eof()
	}
	data := src[i : i+end]
	next := i + end + 2
	if string(src[lo:hi]) == "xml" {
		if v := procInstParam("version=", data); v != "" && v != "1.0" {
			return 0, fmt.Errorf("xmltree: parse: xml: unsupported version %q; only version 1.0 is supported", v)
		}
		if e := procInstParam("encoding=", data); e != "" && !strings.EqualFold(e, "utf-8") {
			return 0, fmt.Errorf("xmltree: parse: xml: encoding %q declared but only UTF-8 is supported", e)
		}
		return next, nil
	}
	s.flushText()
	label := s.intern(src[lo:hi])
	ord := s.addLeaf(ProcInstNode, label)
	s.dataOff[ord] = uint32(len(s.blob))
	s.blob = append(s.blob, data...)
	s.fp = fnvLeaf(s.fp, ProcInstNode, src[lo:hi], data)
	return next, nil
}

// procInstParam returns the quoted value of param (which ends in '=')
// in an XML declaration's content, or "": the first occurrence of param
// followed by a quote, up to the matching quote. It mirrors
// encoding/xml's deliberately loose reading, which the version and
// encoding checks depend on.
func procInstParam(param string, s []byte) string {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return string(s[i : i+j])
}

// bang scans the markup after "<!" at i: a comment, a CDATA section or
// a directive (DOCTYPE and the like, skipped).
func (s *scanner) bang(i int) (int, error) {
	src := s.src
	if i >= len(src) {
		return 0, s.eof()
	}
	switch src[i] {
	case '-':
		if i+1 >= len(src) {
			return 0, s.eof()
		}
		if src[i+1] != '-' {
			return 0, s.syntaxError(i, "invalid sequence <!- not part of <!--")
		}
		body := i + 2
		end := bytes.Index(src[body:], []byte("--"))
		if end < 0 || body+end+2 >= len(src) {
			return 0, s.eof()
		}
		if src[body+end+2] != '>' {
			return 0, s.syntaxError(body+end, `invalid sequence "--" not allowed in comments`)
		}
		data := src[body : body+end]
		s.flushText()
		ord := s.addLeaf(CommentNode, -1)
		s.dataOff[ord] = uint32(len(s.blob))
		s.blob = append(s.blob, data...)
		s.fp = fnvLeaf(s.fp, CommentNode, nil, data)
		return body + end + 3, nil
	case '[':
		const open = "[CDATA["
		for k := 0; k < len(open); k++ {
			if i+k >= len(src) {
				return 0, s.eof()
			}
			if src[i+k] != open[k] {
				return 0, s.syntaxError(i+k, "invalid <![ sequence")
			}
		}
		body := i + len(open)
		end := bytes.Index(src[body:], []byte("]]>"))
		if end < 0 {
			return 0, s.syntaxError(len(src), "unexpected EOF in CDATA section")
		}
		start := len(s.blob)
		if _, err := s.decode(body, src[body:body+end], cdataMode, 0); err != nil {
			return 0, err
		}
		s.charData(start)
		return body + end + 3, nil
	}
	return s.directive(i)
}

// directive skips a directive whose body starts at i, with
// encoding/xml's rules for where it ends: the first '>' outside quotes
// and outside nested '<' ... '>' pairs, with embedded <!-- comments -->
// skipped whole. The first body byte is never a delimiter.
func (s *scanner) directive(i int) (int, error) {
	src := s.src
	i++
	var inquote byte
	depth := 0
	for {
		if i >= len(src) {
			return 0, s.eof()
		}
		b := src[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			return i, nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			for k := 0; k < len(open); k++ {
				if i >= len(src) {
					return 0, s.eof()
				}
				b = src[i]
				i++
				if b != open[k] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if i >= len(src) {
					return 0, s.eof()
				}
				b = src[i]
				i++
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// document turns the scan into a document of the given backend.
func (s *scanner) document(backend string) (*Document, error) {
	names := make([]string, len(s.nameOff)-1)
	if len(names) > 0 {
		all := string(s.nameBuf)
		for id := range names {
			names[id] = all[s.nameOff[id]:s.nameOff[id+1]]
		}
	}
	blob := string(s.blob)
	tags, attrs := s.ordLists(names)
	if backend == BackendColumnar {
		c := &Columnar{
			flat:     s.copyFlat(),
			blob:     blob,
			names:    names,
			tagOrds:  tags,
			attrOrds: attrs,
			fp:       s.fp,
		}
		return c.Document(), nil
	}
	d := s.hydrate(blob, names)
	d.fp.Store(s.fp)
	d.fpSet.Store(true)
	// The scan's arrays are pooled: the link core gets its own copy.
	d.links = s.links.clone()
	d.tagOrds, d.attrOrds = tags, attrs
	return d, nil
}
