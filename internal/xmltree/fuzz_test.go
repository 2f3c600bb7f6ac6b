package xmltree

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse is the differential test of the scanner against the
// encoding/xml oracle: for every input, with whitespace kept and
// dropped, both accept or both reject, and an accepted input gives
// both backends the oracle's node list (kind, name, data, parent,
// pre/post, sibling index), fingerprint and index. Accepted documents
// must also serialize to XML that re-parses with identical structure,
// and satisfy the pre/post interval invariants.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, keepSpace := range []bool{false, true} {
			checkAgainstOracle(t, src, keepSpace)
		}
		d, err := ParseString(src)
		if err != nil {
			return
		}
		out := d.XMLString()
		d2, err := ParseString(out)
		if err != nil {
			t.Fatalf("serialized form of %q does not re-parse: %v\nserialized: %q", src, err, out)
		}
		s1, s2 := ComputeStats(d), ComputeStats(d2)
		if s1 != s2 {
			t.Fatalf("structure drift: %+v vs %+v\nsrc: %q\nout: %q", s1, s2, src, out)
		}
		// Pre/post numbering invariants hold on every parsed document.
		for _, n := range d.Nodes {
			if n.Type != AttributeNode && n.Parent != nil {
				if !(n.Parent.Pre < n.Pre && n.Parent.Post > n.Post) {
					t.Fatalf("interval nesting violated at node %d", n.Ord)
				}
			}
		}
	})
}

// checkAgainstOracle parses src with the oracle and with the scanner on
// every entry point and backend, and fails on any disagreement.
func checkAgainstOracle(t *testing.T, src string, keepSpace bool) {
	t.Helper()
	want, werr := oracleParse(strings.NewReader(src), keepSpace)
	type arm struct {
		name string
		d    *Document
		err  error
	}
	var arms []arm
	for _, backend := range Backends() {
		d, err := ParseWith(strings.NewReader(src), ParseConfig{KeepSpace: keepSpace, Backend: backend})
		arms = append(arms, arm{"ParseWith/" + backend, d, err})
	}
	if !keepSpace {
		d, err := ParseString(src)
		arms = append(arms, arm{"ParseString", d, err})
	}
	for _, a := range arms {
		if (a.err == nil) != (werr == nil) {
			t.Fatalf("%s keepSpace=%v on %q: scanner error %v, oracle error %v", a.name, keepSpace, src, a.err, werr)
		}
		if a.err != nil {
			if !strings.HasPrefix(a.err.Error(), "xmltree: parse: ") {
				t.Fatalf("%s on %q: error %q lacks the parse prefix", a.name, src, a.err)
			}
			continue
		}
		if msg := diffDocuments(a.d, want); msg != "" {
			t.Fatalf("%s keepSpace=%v on %q: %s", a.name, keepSpace, src, msg)
		}
	}
}

// fuzzParseSeeds is FuzzParse's seed corpus.
func fuzzParseSeeds() []string {
	seeds := []string{
		"<a/>", "<a><b x=\"1\">hi</b></a>", "<a>&lt;&amp;</a>",
		"<a><!--c--><?pi d?></a>", "<a xmlns:n=\"u\"><n:b/></a>",
		"<a>", "</a>", "text", "<a b=></a>", "<a><b></a></b>",
		"<a>\xff</a>", strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40),
	}
	for _, q := range parseQuirks {
		seeds = append(seeds, q.src)
	}
	return seeds
}

// diffDocuments describes the first difference between the node lists,
// fingerprints and indexes of two documents, or returns "".
func diffDocuments(got, want *Document) string {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d nodes, oracle %d", len(got.Nodes), len(want.Nodes))
	}
	ord := func(n *Node) int {
		if n == nil {
			return -1
		}
		return int(n.Ord)
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if int(g.Ord) != i || g.Document() != got {
			return fmt.Sprintf("ord %d: Ord field %d, owned by its document %v", i, g.Ord, g.Document() == got)
		}
		gv := fmt.Sprint(g.Type, g.Name, g.Data, ord(g.Parent), g.Pre, g.Post, g.SiblingIdx, len(g.Children), len(g.Attrs))
		wv := fmt.Sprint(w.Type, w.Name, w.Data, ord(w.Parent), w.Pre, w.Post, w.SiblingIdx, len(w.Children), len(w.Attrs))
		if gv != wv {
			return fmt.Sprintf("ord %d: %q, oracle %q (kind, name, data, parent, pre, post, sibling index, children, attributes)", i, gv, wv)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		return "fingerprint differs from the oracle's"
	}
	if msg := diffIndexes(got.Index(), want.Index()); msg != "" {
		return "index: " + msg
	}
	return ""
}

// parseQuirks pins what the parser does with the corners of XML and of
// the namespace-free data model (DESIGN.md §7); want is the accepted
// document serialized, or "" when the input is rejected.
var parseQuirks = []struct {
	name, src, want string
}{
	{"prefix stripped", `<a:b/>`, `<b/>`},
	{"attribute prefix stripped", `<a p:x="1"/>`, `<a x="1"/>`},
	{"two colons rejected", `<a:b:c/>`, ""},
	{"end tag repeats the prefix", `<a:b></a:b>`, `<b/>`},
	{"end tag with another prefix", `<a:b></c:b>`, ""},
	{"end tag without the prefix", `<a:b></b>`, ""},
	{"local part must stand alone", `<A:0/>`, ""},
	{"namespace declarations dropped", `<a xmlns="u" xmlns:p="v" p:x="1"/>`, `<a x="1"/>`},
	{"prefix bound to xmlns", `<a xmlns:p="xmlns" p:x="1"/>`, `<a/>`},
	{"bound later in the same tag", `<a p:x="1" xmlns:p="xmlns"/>`, `<a/>`},
	{"binding ends with its element", `<r><a xmlns:p="xmlns"/><b p:x="1"/></r>`, `<r><a/><b x="1"/></r>`},
	{"inner declaration shadows", `<a xmlns:p="xmlns"><b xmlns:p="u" p:x="1"/></a>`, `<a><b x="1"/></a>`},
	{"xml prefix never dropped", `<a xmlns:xml="xmlns" xml:x="1"/>`, `<a x="1"/>`},
	{"the name xmlns: dropped", `<a xmlns:="v"/>`, `<a/>`},
	{"duplicate attributes kept", `<a x="1" x="2"/>`, `<a x="1" x="2"/>`},
	{"attributes need no space between", `<a x="1"y='2'/>`, `<a x="1" y="2"/>`},
	{"several top-level elements", `<a/><b/>`, `<a/><b/>`},
	{"outside text dropped", `x<a/>y<![CDATA[z]]>`, `<a/>`},
	{"top-level comment and PI kept", `<!--c--><?p d?><a/>`, `<!--c--><?p d?><a/>`},
	{"no element", `<!--c-->`, ""},
	{"]]> in text", `<a>]]></a>`, ""},
	{"]]> in attribute", `<a x="]]>"/>`, `<a x="]]>"/>`},
	{"-- in comment", `<a><!-- a -- b --></a>`, ""},
	{"< in attribute", `<a x="<"/>`, ""},
	{"NUL reference", `<a>&#0;</a>`, ""},
	{"unknown entity", `<a>&foo;</a>`, ""},
	{"DTD-declared entity", `<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`, ""},
	{"DOCTYPE skipped", `<!DOCTYPE a [<!ELEMENT a ANY> <!-- > -->]><a/>`, `<a/>`},
	{"version 1.1", `<?xml version="1.1"?><a/>`, ""},
	{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, ""},
	{"UTF-8 encoding in any case", `<?xml version="1.0" encoding="Utf-8"?><a/>`, `<a/>`},
	{"whitespace dropped per token", `<a>x<![CDATA[ ]]>y</a>`, `<a>xy</a>`},
	{"text coalesces across directives", `<a>x<?xml version="1.0"?>y<!D>z</a>`, `<a>xyz</a>`},
	{"line ends normalised", "<a x='1\r\n2'>x\r\ny\rz</a>", "<a x=\"1\\n2\">x\ny\nz</a>"}, // WriteXML quotes attributes with %q
	{"references", `<a>&#65;&#x42;&lt;&gt;&amp;&apos;&quot;</a>`, `<a>AB&lt;&gt;&amp;'"</a>`},
	{"upper-case X reference", `<a>&#X41;</a>`, ""},
	{"surrogate reference", `<a>&#xD800;</a>`, "<a>\uFFFD</a>"},
	{"invalid UTF-8", "<a>\xff</a>", ""},
	{"control character", "<a>\x01</a>", ""},
	{"U+FFFE", "<a>\uFFFE</a>", ""},
}

func TestParseQuirks(t *testing.T) {
	for _, q := range parseQuirks {
		t.Run(q.name, func(t *testing.T) {
			parsers := map[string]func() (*Document, error){
				"oracle": func() (*Document, error) { return oracleParse(strings.NewReader(q.src), false) },
			}
			for _, backend := range Backends() {
				parsers[backend] = func() (*Document, error) {
					return ParseWith(strings.NewReader(q.src), ParseConfig{Backend: backend})
				}
			}
			for name, parse := range parsers {
				d, err := parse()
				switch {
				case q.want == "" && err == nil:
					t.Errorf("%s accepted %q as %q", name, q.src, d.XMLString())
				case q.want != "" && err != nil:
					t.Errorf("%s rejected %q: %v", name, q.src, err)
				case err == nil && d.XMLString() != q.want:
					t.Errorf("%s parsed %q as %q, want %q", name, q.src, d.XMLString(), q.want)
				}
			}
			checkAgainstOracle(t, q.src, false)
			checkAgainstOracle(t, q.src, true)
		})
	}
}

// The scanner's name classes must match encoding/xml's on every BMP
// rune, both to begin a name and to continue one.
func TestXMLNameTables(t *testing.T) {
	accepts := func(name string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
		return err == nil
	}
	for r := rune(utf8.RuneSelf); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		s := string(r)
		if got, want := isXMLName([]byte(s)), accepts(s); got != want {
			t.Fatalf("%U as a first name rune: scanner %v, encoding/xml %v", r, got, want)
		}
		if got, want := isXMLName([]byte("a"+s)), accepts("a"+s); got != want {
			t.Fatalf("%U as a later name rune: scanner %v, encoding/xml %v", r, got, want)
		}
	}
}
