package xmltree

import (
	"fmt"
	"io"
	"strings"
)

// WriteXML serializes the document to w as XML. Extra labels (Remark 3.1)
// are emitted as a synthetic "labels" attribute holding the space-separated
// label set, so that serialized reduction documents remain inspectable and
// round-trippable for debugging (ParseLabels restores them).
func (d *Document) WriteXML(w io.Writer) error {
	for _, c := range d.Root.Children {
		if err := writeNode(w, c); err != nil {
			return err
		}
	}
	return nil
}

// XMLString returns the serialized document as a string.
func (d *Document) XMLString() string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = d.WriteXML(&b)
	return b.String()
}

func writeNode(w io.Writer, n *Node) error {
	switch n.Type {
	case ElementNode:
		if _, err := fmt.Fprintf(w, "<%s", n.Name); err != nil {
			return err
		}
		for _, a := range n.Attrs {
			if _, err := fmt.Fprintf(w, " %s=%q", a.Name, escapeAttr(a.Data)); err != nil {
				return err
			}
		}
		if ls := n.Labels(); len(ls) > 0 {
			if _, err := fmt.Fprintf(w, " labels=%q", strings.Join(ls, " ")); err != nil {
				return err
			}
		}
		if len(n.Children) == 0 {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := writeNode(w, c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Name)
		return err
	case TextNode:
		_, err := io.WriteString(w, escapeText(n.Data))
		return err
	case CommentNode:
		_, err := fmt.Fprintf(w, "<!--%s-->", n.Data)
		return err
	case ProcInstNode:
		_, err := fmt.Fprintf(w, "<?%s %s?>", n.Name, n.Data)
		return err
	default:
		return fmt.Errorf("xmltree: cannot serialize node type %v", n.Type)
	}
}

// The escapers are built once: a Replacer is safe for concurrent use,
// and one with nothing to replace returns its input without allocating.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// ParseLabels restores extra labels from synthetic "labels" attributes
// produced by WriteXML, removing those attributes. It returns a freshly
// numbered document.
func ParseLabels(d *Document) *Document {
	var strip func(n *Node)
	strip = func(n *Node) {
		kept := n.Attrs[:0]
		for _, a := range n.Attrs {
			if a.Name == "labels" {
				for _, l := range strings.Fields(a.Data) {
					n.AddLabel(l)
				}
				continue
			}
			kept = append(kept, a)
		}
		n.Attrs = kept
		for _, c := range n.Children {
			strip(c)
		}
	}
	cp := d.Copy()
	strip(cp.Root)
	return NewDocument(cp.Root.Children...)
}
