package xmltree

import (
	"fmt"
	"io"
	"os"
	"unicode"
	"unsafe"
)

// Parse reads an XML document from r and builds the document tree.
//
// The parser accepts exactly what encoding/xml's strict Decoder accepts
// (UTF-8 only, the five predefined entities and character references,
// DOCTYPE and other directives skipped) and keeps the namespace-free
// data model of DESIGN.md §7: a namespace prefix is stripped, so <p:b>
// is the element b (<p:b:c> is rejected, and an end tag must repeat
// its start tag's prefix); namespace declarations (xmlns, xmlns:p) are
// dropped, and so is an attribute whose prefix is bound to the URI
// "xmlns"; duplicate attributes are kept; several top-level elements
// are accepted; character data outside every element is dropped. A
// name whose local part cannot stand alone (<p:0/>) is rejected.
//
// Whitespace-only text nodes are preserved only when keepSpace is
// requested via ParseOptions or ParseConfig; Parse itself drops them,
// matching the behaviour XPath test suites conventionally assume for
// data-oriented documents. The test is per character-data token, before
// adjacent runs coalesce: "x<![CDATA[ ]]>y" is the single text "xy".
func Parse(r io.Reader) (*Document, error) {
	return ParseOptions(r, false)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return parse(unsafe.Slice(unsafe.StringData(s), len(s)), false, BackendPointer)
}

// ParseConfig bundles parse-time options for ParseWith.
type ParseConfig struct {
	// KeepSpace preserves whitespace-only text nodes.
	KeepSpace bool
	// Backend selects the storage backend of the returned document:
	// BackendPointer (the default, also selected by ""), or
	// BackendColumnar to keep the parse in the struct-of-arrays
	// encoding and return its hydrated view.
	Backend string
}

// ParseWith parses an XML document under the given configuration.
// Both backends are built straight from the scan: the columnar backend
// keeps its arrays, the pointer backend hydrates one node slab from
// them. Content, numbering and fingerprint are identical across
// backends.
func ParseWith(r io.Reader, cfg ParseConfig) (*Document, error) {
	return parseReader(r, cfg.KeepSpace, cfg.Backend)
}

// ParseOptions parses an XML document into the pointer backend;
// keepSpace preserves whitespace-only text nodes.
func ParseOptions(r io.Reader, keepSpace bool) (*Document, error) {
	return parseReader(r, keepSpace, BackendPointer)
}

// validFlatName reports whether a local name stands on its own as an XML
// name (encoding/xml validates full qualified names, but a prefixed name
// like "A:0" has the invalid bare local part "0").
func validFlatName(s string) bool {
	for i, r := range s {
		if i == 0 {
			if !(r == '_' || unicode.IsLetter(r)) {
				return false
			}
			continue
		}
		if !(r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)) {
			return false
		}
	}
	return s != ""
}

// ParseFile parses the XML document stored at path.
func ParseFile(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	defer f.Close()
	return Parse(f)
}
