package axes

import (
	"slices"

	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// candidates returns the index ord list holding the candidates of node
// test t under axis a. all reports the node() test, whose candidates
// are every non-attribute ord and which has no list. ok is false when
// the index serves no list: targeted PI tests and the attribute axis
// keep the generic path.
func candidates(ix *xmltree.Index, a ast.Axis, t ast.NodeTest) (list []int32, all, ok bool) {
	if a == ast.AxisAttribute {
		return nil, false, false
	}
	switch t.Kind {
	case ast.TestName:
		return ix.ElementsByTag(t.Name), false, true
	case ast.TestStar:
		return ix.Elements(), false, true
	case ast.TestText:
		return ix.Texts(), false, true
	case ast.TestComment:
		return ix.Comments(), false, true
	case ast.TestPI:
		if t.Name == "" {
			return ix.ProcInsts(), false, true
		}
		return nil, false, false
	case ast.TestNode:
		return nil, true, true
	default:
		return nil, false, false
	}
}

// span is the index-served image of a descendant, following or
// preceding step from one context node, the context node itself left
// out: the candidates in the ord range [lo, hi), which are list, or
// every non-attribute ord there when all is set; for preceding, anchor
// is the context node (its owner, for an attribute), whose ancestors
// are skipped, and -1 otherwise.
type span struct {
	list   []int32
	all    bool
	lo, hi int32
	anchor int32
}

// indexSpan computes the span of axis::test from ord o, and whether the
// index serves the step. Ords number each subtree contiguously, so the
// descendants of o are (o, SubtreeEnd(o)) and the following nodes start
// at SubtreeEnd(o); an attribute has no descendants, and everything
// after it but its sibling attributes follows it.
func indexSpan(ix *xmltree.Index, a ast.Axis, t ast.NodeTest, o int32) (span, bool) {
	list, all, ok := candidates(ix, a, t)
	if !ok {
		return span{}, false
	}
	s := span{all: all, hi: int32(ix.Len()), anchor: -1}
	switch a {
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		s.lo, s.hi = o+1, ix.SubtreeEnd(o)
	case ast.AxisFollowing:
		s.lo = ix.SubtreeEnd(o)
	case ast.AxisPreceding:
		if ix.IsAttr(o) {
			o = ix.ParentOrds()[o]
		}
		s.hi, s.anchor = o, o
	default:
		return span{}, false
	}
	if !all {
		s.list = xmltree.OrdsIn(list, s.lo, s.hi)
	}
	return s, true
}

// each calls f for every ord of the span in proximity order: document
// order, except for preceding (anchor >= 0), which runs backwards so
// that the walk up the anchor's parent chain meets each ancestor
// exactly where the scan would reach it.
func (s span) each(ix *xmltree.Index, f func(o int32)) {
	if s.anchor < 0 {
		if !s.all {
			for _, o := range s.list {
				f(o)
			}
			return
		}
		for o := s.lo; o < s.hi; o++ {
			if !ix.IsAttr(o) {
				f(o)
			}
		}
		return
	}
	parent := ix.ParentOrds()
	p := parent[s.anchor]
	visit := func(o int32) {
		for p > o {
			p = parent[p]
		}
		if p != o {
			f(o)
		}
	}
	if !s.all {
		for i := len(s.list) - 1; i >= 0; i-- {
			visit(s.list[i])
		}
		return
	}
	for o := s.hi - 1; o >= s.lo; o-- {
		if !ix.IsAttr(o) {
			visit(o)
		}
	}
}

// appendNodes appends the span's nodes (Document.Nodes[ord]) to dst in
// proximity order, or in document order when docOrder is set: each
// emits proximity order, so only preceding in document order reverses,
// once.
func (s span) appendNodes(dst []*xmltree.Node, ix *xmltree.Index, docOrder bool) []*xmltree.Node {
	nodes := ix.Doc().Nodes
	start := len(dst)
	s.each(ix, func(o int32) { dst = append(dst, nodes[o]) })
	if docOrder && s.anchor >= 0 {
		slices.Reverse(dst[start:])
	}
	return dst
}

// AppendSelectOrds appends to dst, in document order, the ords that
// axis::test selects from the context ord o, and reports whether the
// index serves the step: descendant and descendant-or-self (a subtree
// slice of the test's ord list, or the subtree's ord range minus
// attributes for node()), following (a suffix) and preceding (a prefix
// scan that skips the ancestors). The context node itself is left out:
// descendant-or-self callers add it when it passes the test. Nothing
// is appended when ok is false.
func AppendSelectOrds(dst []int32, ix *xmltree.Index, a ast.Axis, t ast.NodeTest, o int32) ([]int32, bool) {
	s, ok := indexSpan(ix, a, t, o)
	if !ok {
		return dst, false
	}
	if s.anchor < 0 && !s.all {
		return append(dst, s.list...), true
	}
	start := len(dst)
	s.each(ix, func(o int32) { dst = append(dst, o) })
	if s.anchor >= 0 {
		slices.Reverse(dst[start:])
	}
	return dst, true
}

// AppendSelectFast is AppendSelectOrds for a tree engine: it appends the
// selected nodes (Document.Nodes[ord]) in document order, under the
// same rule (the context node left out, for descendant-or-self callers
// to add). It allocates nothing beyond growing dst.
func AppendSelectFast(dst []*xmltree.Node, ix *xmltree.Index, a ast.Axis, t ast.NodeTest, n *xmltree.Node) ([]*xmltree.Node, bool) {
	s, ok := indexSpan(ix, a, t, n.Ord)
	if !ok {
		return dst, false
	}
	return s.appendNodes(dst, ix, true), true
}

// AppendSelectProximity appends the axis::test selection from n to dst in
// proximity order and returns the extended slice, for callers that
// recycle their own buffers (ix may be nil for the unindexed walk).
func AppendSelectProximity(dst []*xmltree.Node, ix *xmltree.Index, a ast.Axis, t ast.NodeTest, n *xmltree.Node) []*xmltree.Node {
	if ix != nil {
		if s, ok := indexSpan(ix, a, t, n.Ord); ok {
			if a == ast.AxisDescendantOrSelf && MatchTest(a, n, t) {
				dst = append(dst, n)
			}
			return s.appendNodes(dst, ix, false)
		}
	}
	return appendSelectProximity(dst, a, t, n)
}

// appendSelectProximity walks axis a from n directly, appending matches of
// t in proximity order. It materializes nothing beyond dst: the axes that
// Nodes serves from existing storage (child, attribute, siblings) are
// filtered in place, and the computed axes (descendant, ancestor,
// following, preceding) are walked without an intermediate slice.
func appendSelectProximity(dst []*xmltree.Node, a ast.Axis, t ast.NodeTest, n *xmltree.Node) []*xmltree.Node {
	switch a {
	case ast.AxisSelf:
		if MatchTest(a, n, t) {
			dst = append(dst, n)
		}
	case ast.AxisParent:
		if n.Parent != nil && MatchTest(a, n.Parent, t) {
			dst = append(dst, n.Parent)
		}
	case ast.AxisChild:
		for _, c := range n.Children {
			if MatchTest(a, c, t) {
				dst = append(dst, c)
			}
		}
	case ast.AxisAttribute:
		for _, m := range n.Attrs {
			if MatchTest(a, m, t) {
				dst = append(dst, m)
			}
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		if a == ast.AxisDescendantOrSelf && MatchTest(a, n, t) {
			dst = append(dst, n)
		}
		dst = appendMatchingDescendants(dst, a, t, n)
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		// Reverse axis: proximity order is nearest ancestor first, which
		// the parent chain yields directly.
		if a == ast.AxisAncestorOrSelf && MatchTest(a, n, t) {
			dst = append(dst, n)
		}
		for p := n.Parent; p != nil; p = p.Parent {
			if MatchTest(a, p, t) {
				dst = append(dst, p)
			}
		}
	case ast.AxisFollowingSibling:
		if n.Parent != nil && n.Type != xmltree.AttributeNode {
			for _, m := range n.Parent.Children[n.SiblingIdx+1:] {
				if MatchTest(a, m, t) {
					dst = append(dst, m)
				}
			}
		}
	case ast.AxisPrecedingSibling:
		if n.Parent != nil && n.Type != xmltree.AttributeNode {
			sibs := n.Parent.Children[:n.SiblingIdx]
			for i := len(sibs) - 1; i >= 0; i-- {
				if MatchTest(a, sibs[i], t) {
					dst = append(dst, sibs[i])
				}
			}
		}
	case ast.AxisFollowing:
		for _, m := range n.Document().Nodes {
			if m.Type != xmltree.AttributeNode && reachFollowing(n, m) && MatchTest(a, m, t) {
				dst = append(dst, m)
			}
		}
	case ast.AxisPreceding:
		nodes := n.Document().Nodes
		for i := n.Ord - 1; i >= 0; i-- {
			m := nodes[i]
			if reachPreceding(n, m) && MatchTest(a, m, t) {
				dst = append(dst, m)
			}
		}
	}
	return dst
}

func appendMatchingDescendants(dst []*xmltree.Node, a ast.Axis, t ast.NodeTest, n *xmltree.Node) []*xmltree.Node {
	for _, c := range n.Children {
		if MatchTest(a, c, t) {
			dst = append(dst, c)
		}
		dst = appendMatchingDescendants(dst, a, t, c)
	}
	return dst
}
