package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// oracleParse is the encoding/xml token loop the scanner replaced, kept
// as the specification the scanner is tested against: for every input
// both must accept or both reject, and on accept build the same nodes
// with the same numbering and fingerprint. It builds a pointer tree
// through NewDocument.
func oracleParse(r io.Reader, keepSpace bool) (*Document, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var top []*Node // children of the conceptual root
	addNode := func(n *Node) {
		if len(stack) == 0 {
			top = append(top, n)
		} else {
			p := stack[len(stack)-1]
			p.Children = append(p.Children, n)
		}
	}
	seenElement := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !validFlatName(t.Name.Local) {
				return nil, fmt.Errorf("xmltree: parse: element name %q is not usable in the namespace-free data model (DESIGN.md §7)", t.Name.Local)
			}
			n := Elem(flatName(t.Name))
			for _, a := range t.Attr {
				// Drop namespace declarations: encoding/xml reports
				// xmlns="u" with Local "xmlns" and xmlns:p="u" with
				// Space "xmlns" (for any p, including ones that are not
				// valid attribute names on their own).
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				name := flatName(a.Name)
				if strings.HasPrefix(name, "xmlns:") {
					continue
				}
				if !validFlatName(name) {
					return nil, fmt.Errorf("xmltree: parse: attribute name %q is not usable in the namespace-free data model (DESIGN.md §7)", name)
				}
				n.Attrs = append(n.Attrs, Attr(name, a.Value))
			}
			addNode(n)
			stack = append(stack, n)
			seenElement = true
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if !keepSpace && strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 0 {
				// Character data outside the document element is
				// insignificant whitespace per XML; skip it.
				continue
			}
			// The XPath data model never has adjacent text siblings:
			// coalesce runs of character data (they arise around ignored
			// directives and entity boundaries).
			p := stack[len(stack)-1]
			if n := len(p.Children); n > 0 && p.Children[n-1].Type == TextNode {
				p.Children[n-1].Data += s
				continue
			}
			addNode(Text(s))
		case xml.Comment:
			addNode(Comment(string(t)))
		case xml.ProcInst:
			if t.Target == "xml" {
				continue
			}
			addNode(ProcInst(t.Target, string(t.Inst)))
		case xml.Directive:
			// DOCTYPE etc.: ignored.
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: %d unclosed element(s)", len(stack))
	}
	if !seenElement {
		return nil, fmt.Errorf("xmltree: parse: document has no element")
	}
	return NewDocument(top...), nil
}

func flatName(n xml.Name) string {
	// encoding/xml resolves prefixes to namespace URIs in n.Space; we keep
	// only local names, which is the right granularity for a
	// namespace-free XPath data model.
	return n.Local
}
