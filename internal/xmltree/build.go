package xmltree

import (
	"fmt"
	"maps"
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
// it also drops any cached index, fingerprint and link core.
func (d *Document) number() {
	d.invalidateIndex()
	d.invalidateFingerprint()
	d.resetCore()
	d.Nodes = d.Nodes[:0]
	pre, post := 0, 0
	type frame struct {
		n    *Node
		next int // next child to visit
	}
	var stack []frame
	enter := func(n *Node) {
		n.doc = d
		n.Pre = pre
		pre++
		n.Ord = len(d.Nodes)
		d.Nodes = append(d.Nodes, n)
		for i, a := range n.Attrs {
			if a.Type != AttributeNode {
				panic(fmt.Sprintf("xmltree: non-attribute node %v in Attrs of %q", a.Type, n.Name))
			}
			a.doc = d
			a.Parent = n
			a.SiblingIdx = i
			a.Ord = len(d.Nodes)
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
			c.SiblingIdx = i
			enter(c)
			continue
		}
		n.Post = post
		post++
		for _, a := range n.Attrs {
			a.Post = n.Post
		}
		stack = stack[:len(stack)-1]
	}
}

// Copy returns a deep copy of the document. The copy is independently
// numbered and safe to mutate before re-finalizing.
func (d *Document) Copy() *Document {
	clone := func(n *Node) *Node {
		m := &Node{Type: n.Type, Name: n.Name, Data: n.Data, labels: maps.Clone(n.labels)}
		for _, a := range n.Attrs {
			m.Attrs = append(m.Attrs, &Node{Type: a.Type, Name: a.Name, Data: a.Data, labels: maps.Clone(a.labels)})
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
