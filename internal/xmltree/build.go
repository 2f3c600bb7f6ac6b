package xmltree

import (
	"fmt"
	"math"
)

// Elem constructs an element node with the given tag and children. The
// returned node is loose until passed to NewDocument (possibly as a
// descendant of the root element).
func Elem(name string, children ...*Node) *Node {
	return &Node{Type: ElementNode, Name: name, Children: children}
}

// ElemL constructs an element node carrying extra labels (Remark 3.1).
func ElemL(name string, labels []string, children ...*Node) *Node {
	n := Elem(name, children...)
	for _, l := range labels {
		n.AddLabel(l)
	}
	return n
}

// Text constructs a text node with the given character data.
func Text(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// Comment constructs a comment node.
func Comment(data string) *Node {
	return &Node{Type: CommentNode, Data: data}
}

// ProcInst constructs a processing-instruction node.
func ProcInst(target, data string) *Node {
	return &Node{Type: ProcInstNode, Name: target, Data: data}
}

// Attr constructs an attribute node; attach it with WithAttrs.
func Attr(name, value string) *Node {
	return &Node{Type: AttributeNode, Name: name, Data: value}
}

// WithAttrs attaches attribute nodes to an element and returns the element,
// enabling fluent construction: WithAttrs(Elem("a"), Attr("x", "1")).
func WithAttrs(elem *Node, attrs ...*Node) *Node {
	elem.Attrs = append(elem.Attrs, attrs...)
	return elem
}

// AppendChild adds a child to a loose (not yet finalized) node.
func AppendChild(parent, child *Node) {
	parent.Children = append(parent.Children, child)
}

// NewDocument finalizes a tree under a fresh conceptual root node: it wires
// parent links, sibling indices, document order and pre/post numbering, and
// returns the resulting Document. The given nodes become the children of
// the conceptual root; after this call the tree must not be mutated.
func NewDocument(rootChildren ...*Node) *Document {
	root := &Node{Type: RootNode}
	root.Children = rootChildren
	d := &Document{Root: root}
	d.number()
	return d
}

// number assigns Parent, SiblingIdx, Ord, Pre and Post over the tree
// under d.Root, depth-first with its own stack (depth costs no Go
// stack). It is the single build entry point of the document model, so
// it also drops any cached index, fingerprint and link core. Each node
// brings along the labels the document it was last numbered in (or its
// holder, for a loose node) keeps under its old Ord.
func (d *Document) number() {
	d.invalidateIndex()
	d.invalidateFingerprint()
	d.resetCore()
	d.Nodes = d.Nodes[:0]
	prev := d.labels
	d.labels = nil
	take := func(n *Node, ord int) {
		checkOrdWidth(ord + 1)
		if from := n.doc; from != nil {
			src := from.labels
			if from == d {
				src = prev
			}
			if int(n.Ord) < len(src) && len(src[n.Ord]) > 0 {
				d.setLabels(ord, src[n.Ord])
			}
		}
		n.doc = d
		n.Ord = int32(ord)
	}
	pre, post := 0, 0
	type frame struct {
		n    *Node
		next int // next child to visit
	}
	var stack []frame
	enter := func(n *Node) {
		take(n, len(d.Nodes))
		if n.Type == ElementNode {
			d.elems++
		}
		d.attrs += len(n.Attrs)
		n.Pre = int32(pre)
		pre++
		d.Nodes = append(d.Nodes, n)
		for i, a := range n.Attrs {
			if a.Type != AttributeNode {
				panic(fmt.Sprintf("xmltree: non-attribute node %v in Attrs of %q", a.Type, n.Name))
			}
			take(a, len(d.Nodes))
			a.Parent = n
			a.SiblingIdx = int32(i)
			// Attributes share the owner's pre/post interval so that
			// ancestor-or-self style interval tests behave sensibly.
			a.Pre = n.Pre
			d.Nodes = append(d.Nodes, a)
		}
		stack = append(stack, frame{n: n})
	}
	enter(d.Root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		n := top.n
		if i := top.next; i < len(n.Children) {
			top.next++
			c := n.Children[i]
			c.Parent = n
			c.SiblingIdx = int32(i)
			enter(c)
			continue
		}
		n.Post = int32(post)
		post++
		for _, a := range n.Attrs {
			a.Post = n.Post
		}
		stack = stack[:len(stack)-1]
	}
}

// checkOrdWidth refuses a document of n nodes when an int32 Ord cannot
// number them all: number checks each node before it assigns its Ord,
// so an oversized tree panics instead of wrapping, and NewColumnar
// checks its node count.
func checkOrdWidth(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("xmltree: document of %d nodes exceeds the columnar ord width", n))
	}
}

// Copy returns a deep copy of the document. The copy is independently
// numbered and safe to mutate before re-finalizing.
func (d *Document) Copy() *Document {
	// A clone claims the source document and the original's Ord, so
	// number carries the original's labels over.
	clone := func(n *Node) *Node {
		m := &Node{Type: n.Type, Name: n.Name, Data: n.Data, Ord: n.Ord, doc: d}
		for _, a := range n.Attrs {
			m.Attrs = append(m.Attrs, &Node{Type: a.Type, Name: a.Name, Data: a.Data, Ord: a.Ord, doc: d})
		}
		return m
	}
	type frame struct {
		n, m *Node // the original and its copy
		next int   // next child to copy
	}
	root := clone(d.Root)
	stack := []frame{{n: d.Root, m: root}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if i := top.next; i < len(top.n.Children) {
			top.next++
			c := top.n.Children[i]
			mc := clone(c)
			top.m.Children = append(top.m.Children, mc)
			stack = append(stack, frame{n: c, m: mc})
			continue
		}
		stack = stack[:len(stack)-1]
	}
	nd := &Document{Root: root}
	nd.number()
	return nd
}
