// Package xmltree implements the XML document model underlying the XPath
// engine: an immutable-after-build ordered tree with parent, child, sibling
// and attribute links, document-order numbering, and pre/post-order interval
// numbering for constant-time ancestor/descendant tests.
//
// The model follows the XPath 1.0 data model: a conceptual root node above
// the document element, element nodes, attribute nodes (which have a parent
// but are not children of it), text nodes, comments and processing
// instructions. Namespace nodes are out of scope (see DESIGN.md §7).
//
// In addition to the standard model, every node may carry a set of extra
// labels (Remark 3.1 of the paper), used by the circuit reductions where one
// node represents several facts at once; the document keeps them in a
// table by Ord that only a labeled document allocates. Labels are invisible to ordinary
// node tests and are only observed through the T(l) condition extension or
// through the paper's own lowering T(l) ≡ child::l.
package xmltree

import (
	"slices"
)

// NodeType identifies the kind of a node in the XPath data model.
type NodeType uint8

// The node kinds of the XPath 1.0 data model (minus namespace nodes).
const (
	// RootNode is the conceptual root above the document element.
	RootNode NodeType = iota
	// ElementNode is an XML element.
	ElementNode
	// AttributeNode is an attribute; its Parent is the owning element but
	// it is not one of the element's Children.
	AttributeNode
	// TextNode is character data.
	TextNode
	// CommentNode is an XML comment.
	CommentNode
	// ProcInstNode is a processing instruction.
	ProcInstNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case RootNode:
		return "root"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "processing-instruction"
	default:
		return "invalid"
	}
}

// Node is a single node of a document tree. Nodes are created through a
// Builder or one of the construction helpers (Elem, Text, ...) and become
// immutable once the enclosing Document is built; the evaluators rely on
// this and share documents freely across goroutines.
//
// The numbering fields are int32, the ord width of the document's link
// core and of the columnar store; with Type they fill the first 24 bytes.
// Extra labels (Remark 3.1) are not stored on the node: the document
// keeps them in a table by Ord, read through HasLabel and Labels.
// A Node is 120 bytes on 64-bit platforms (TestNodeLayout).
type Node struct {
	// Type is the node kind.
	Type NodeType

	// Pre and Post are pre- and post-order numbers over the child tree
	// (attributes share their owner's interval): a is an ancestor of d
	// iff a.Pre < d.Pre && a.Post > d.Post.
	Pre, Post int32
	// Ord is the position of the node in Document.Nodes; it is the
	// document-order index (elements precede their attributes, which
	// precede the element's children).
	Ord int32
	// SiblingIdx is the index of this node within Parent.Children
	// (or within Parent.Attrs for attribute nodes).
	SiblingIdx int32

	// Name is the element tag, attribute name or processing-instruction
	// target. Empty for root, text and comment nodes.
	Name string
	// Data is the text content (text nodes), attribute value (attribute
	// nodes) or comment/PI payload.
	Data string

	// Parent is the parent node (the owning element for attributes); nil
	// only for the conceptual root.
	Parent *Node
	// Children are the child nodes in document order. Attributes are not
	// children.
	Children []*Node
	// Attrs are the attribute nodes of an element, in document order.
	Attrs []*Node

	// doc is the document the node was numbered in; for a loose node
	// that carries labels it is a holder document (Root nil) parking
	// them until the node is numbered.
	doc *Document
}

// Document is a fully built document tree. Its Nodes slice lists every node
// in document order; Root is the conceptual root node.
type Document struct {
	// Root is the conceptual root node (Type RootNode).
	Root *Node
	// Nodes holds every node of the document in document order.
	Nodes []*Node

	// labels holds the extra labels (Remark 3.1) indexed by Ord, each
	// list sorted and free of duplicates; nil when no node carries one,
	// and no longer than the last labeled Ord needs. A list is never
	// written in place once stored, so documents may share lists.
	// Indexing beats a map keyed by Ord here: label tests scan the
	// whole table, and a reduction document labels most of its nodes.
	labels [][]string

	indexCache
	fpCache
	core
}

// Document returns the document the node belongs to, or nil for a
// loose node.
func (n *Node) Document() *Document {
	if d := n.doc; d != nil && d.Root != nil {
		return d
	}
	return nil
}

// Size returns the total number of nodes in the document, the |D| of the
// paper's complexity bounds.
func (d *Document) Size() int { return len(d.Nodes) }

// DocumentElement returns the single element child of the root, or nil for
// an empty document.
func (d *Document) DocumentElement() *Node {
	for _, c := range d.Root.Children {
		if c.Type == ElementNode {
			return c
		}
	}
	return nil
}

// AddLabel attaches an extra label to the node (Remark 3.1). It must only
// be called before the document is finalized or on reduction-built
// documents that are not shared across goroutines yet. A loose node's
// labels are parked on a holder document and move into the real one
// when the node is numbered.
func (n *Node) AddLabel(l string) {
	if n.doc == nil {
		n.doc = &Document{}
	}
	n.doc.addLabel(n.Ord, l)
}

// addLabel adds l to the label list of ord, replacing the list rather
// than writing into it.
func (d *Document) addLabel(ord int32, l string) {
	ls := d.labelsOf(ord)
	i, found := slices.BinarySearch(ls, l)
	if found {
		return
	}
	d.setLabels(int(ord), slices.Insert(slices.Clip(ls), i, l))
}

// setLabels stores the label list of ord, growing the table to reach it.
func (d *Document) setLabels(ord int, ls []string) {
	if n := len(d.labels); ord >= n {
		d.labels = slices.Grow(d.labels, ord+1-n)[:ord+1]
		clear(d.labels[n:ord])
	}
	d.labels[ord] = ls
}

// labelsOf returns the label list of ord, nil if it has none.
func (d *Document) labelsOf(ord int32) []string {
	if int(ord) < len(d.labels) {
		return d.labels[ord]
	}
	return nil
}

// HasLabel reports whether the node carries the extra label l.
func (n *Node) HasLabel(l string) bool {
	return n.doc != nil && slices.Contains(n.doc.labelsOf(n.Ord), l)
}

// Labels returns the node's extra labels in sorted order.
func (n *Node) Labels() []string {
	if n.doc == nil {
		return nil
	}
	return slices.Clone(n.doc.labelsOf(n.Ord))
}

// EachLabeled calls f with the Ord of every node carrying the extra
// label l, in document order: a walk of the label table, not of the
// nodes.
func (d *Document) EachLabeled(l string, f func(ord int)) {
	for ord, ls := range d.labels {
		if slices.Contains(ls, l) {
			f(ord)
		}
	}
}

// IsAncestorOf reports whether n is a proper ancestor of m. For attribute
// nodes the ancestors are the owning element and its ancestors.
func (n *Node) IsAncestorOf(m *Node) bool {
	if m.Type == AttributeNode {
		if m.Parent == nil {
			return false
		}
		return n == m.Parent || n.IsAncestorOf(m.Parent)
	}
	if n.Type == AttributeNode {
		return false
	}
	return n.Pre < m.Pre && n.Post > m.Post
}

// IsDescendantOf reports whether n is a proper descendant of m.
func (n *Node) IsDescendantOf(m *Node) bool { return m.IsAncestorOf(n) }

// CompareOrder returns -1, 0 or +1 according to the document order of a
// and b. Both nodes must belong to the same document.
func CompareOrder(a, b *Node) int {
	switch {
	case a.Ord < b.Ord:
		return -1
	case a.Ord > b.Ord:
		return 1
	default:
		return 0
	}
}

// StringValue returns the XPath string-value of the node: for root and
// element nodes the concatenation of all descendant text nodes in document
// order; for the other kinds their character data.
func (n *Node) StringValue() string {
	switch n.Type {
	case RootNode, ElementNode:
		// The common leaf shapes need no concatenation: an empty
		// element's string-value is "", a single text child's is that
		// child's data, shared rather than copied, and a single element
		// child's is that child's own.
		switch len(n.Children) {
		case 0:
			return ""
		case 1:
			switch c := n.Children[0]; c.Type {
			case TextNode:
				return c.Data
			case ElementNode:
				return c.StringValue()
			}
		}
		return string(n.AppendStringValue(make([]byte, 0, 64)))
	default:
		return n.Data
	}
}

// AppendStringValue appends the node's string-value to dst: the same
// text StringValue returns, for callers that only inspect it and reuse
// one buffer across nodes instead of allocating a string per node.
func (n *Node) AppendStringValue(dst []byte) []byte {
	switch n.Type {
	case RootNode, ElementNode:
		for _, c := range n.Children {
			switch c.Type {
			case TextNode:
				dst = append(dst, c.Data...)
			case ElementNode:
				dst = c.AppendStringValue(dst)
			}
		}
		return dst
	default:
		return append(dst, n.Data...)
	}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// Depth returns the number of edges from the node to the conceptual root.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// NextSibling returns the following sibling in document order, or nil.
func (n *Node) NextSibling() *Node {
	p := n.Parent
	if p == nil || n.Type == AttributeNode {
		return nil
	}
	if i := int(n.SiblingIdx) + 1; i < len(p.Children) {
		return p.Children[i]
	}
	return nil
}

// PrevSibling returns the preceding sibling in document order, or nil.
func (n *Node) PrevSibling() *Node {
	p := n.Parent
	if p == nil || n.Type == AttributeNode {
		return nil
	}
	if n.SiblingIdx > 0 {
		return p.Children[n.SiblingIdx-1]
	}
	return nil
}

// Walk calls f for the node and every descendant in document (pre-)order,
// attributes immediately after their element. Walking stops early if f
// returns false.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, a := range n.Attrs {
		if !f(a) {
			return false
		}
	}
	for _, c := range n.Children {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// FindAll returns every node in the document satisfying pred, in document
// order.
func (d *Document) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range d.Nodes {
		if pred(n) {
			out = append(out, n)
		}
	}
	return out
}

// FindFirstElement returns the first element with the given tag in document
// order, or nil.
func (d *Document) FindFirstElement(name string) *Node {
	for _, n := range d.Nodes {
		if n.Type == ElementNode && n.Name == name {
			return n
		}
	}
	return nil
}
