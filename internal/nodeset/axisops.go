package nodeset

import (
	"math/bits"

	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// ApplyAxis computes the image χ(S) = { m | ∃n ∈ S: m on axis χ from n }
// in O(|D|). Compatibility entry point: no index, no arena (heap
// allocation). Engines use ApplyAxisIndexed with an arena.
func ApplyAxis(a ast.Axis, s Set) Set { return ApplyAxisIndexed(nil, nil, a, s) }

// ApplyAxisIndexed is ApplyAxis running over the document index's flat
// parent/sibling/attribute arrays instead of chasing Node pointers —
// the same O(|D|) passes over contiguous memory. A nil index recovers
// the pointer-walking implementation; a nil arena falls back to heap
// allocation. The result never aliases s.
func ApplyAxisIndexed(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set) Set {
	return applyAxis(ar, ix, a, s, false)
}

// ApplyAxisIndexedOwned is ApplyAxisIndexed for callers that exclusively
// own s (freshly built, never cached/shared): the result may alias or
// consume s, and s must not be used afterwards. Concretely this elides
// the defensive copy of the self axis.
func ApplyAxisIndexedOwned(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set) Set {
	return applyAxis(ar, ix, a, s, true)
}

func applyAxis(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set, owned bool) Set {
	switch a {
	case ast.AxisSelf:
		if owned {
			return s
		}
		return ar.Clone(s)
	case ast.AxisChild:
		return childSet(ar, ix, s)
	case ast.AxisParent:
		return parentSet(ar, ix, s)
	case ast.AxisDescendant:
		return descendantSet(ar, ix, s, false)
	case ast.AxisDescendantOrSelf:
		return descendantSet(ar, ix, s, true)
	case ast.AxisAncestor:
		return ancestorSet(ar, ix, s, false)
	case ast.AxisAncestorOrSelf:
		return ancestorSet(ar, ix, s, true)
	case ast.AxisFollowingSibling:
		return followingSiblingSet(ar, ix, s)
	case ast.AxisPrecedingSibling:
		return precedingSiblingSet(ar, ix, s)
	case ast.AxisFollowing:
		return followingSet(ar, ix, s)
	case ast.AxisPreceding:
		return precedingSet(ar, ix, s)
	case ast.AxisAttribute:
		return attributeSet(ar, s)
	default:
		return ar.New(s.Doc)
	}
}

// ApplyInverseAxis computes χ⁻¹(S) = { n | χ(n) ∩ S ≠ ∅ }. For tree nodes
// this is the image under the inverse axis; attribute context nodes need
// special treatment because the XPath axes are not symmetric on attributes
// (e.g. following(attr) covers the owner's subtree, but attributes never
// appear in any following/preceding result). Compatibility entry point
// (no index, no arena).
func ApplyInverseAxis(a ast.Axis, s Set) Set { return ApplyInverseAxisIndexed(nil, nil, a, s) }

// ApplyInverseAxisIndexed is ApplyInverseAxis over the document index's
// flat arrays; a nil index recovers the pointer-walking implementation,
// a nil arena falls back to heap allocation. The result never aliases s.
func ApplyInverseAxisIndexed(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set) Set {
	return applyInverseAxis(ar, ix, a, s, false)
}

// ApplyInverseAxisIndexedOwned is ApplyInverseAxisIndexed for callers
// that exclusively own s: the result may alias or consume s, and s must
// not be used afterwards. This elides the defensive clones the shared
// variant needs before its in-place attribute filtering.
func ApplyInverseAxisIndexedOwned(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set) Set {
	return applyInverseAxis(ar, ix, a, s, true)
}

func applyInverseAxis(ar *Arena, ix *xmltree.Index, a ast.Axis, s Set, owned bool) Set {
	doc := s.Doc
	// noAttrs returns s without attribute members, cloning first unless
	// the caller owns s.
	noAttrs := func(s Set) Set {
		if !owned {
			s = ar.Clone(s)
		}
		return dropAttrs(ix, s)
	}
	switch a {
	case ast.AxisSelf:
		if owned {
			return s
		}
		return ar.Clone(s)
	case ast.AxisChild:
		return parentSet(ar, ix, noAttrs(s))
	case ast.AxisParent:
		// parent(n) ∈ S for children of S-members and attributes of
		// S-members.
		out := childSet(ar, ix, s)
		addMemberAttrs(out, s)
		return out
	case ast.AxisDescendant:
		return ancestorSet(ar, ix, noAttrs(s), false)
	case ast.AxisDescendantOrSelf:
		// dos(attr) = {attr}: an attribute qualifies iff it is in S itself.
		attrs := attrMembers(ar, ix, s) // saved before noAttrs may drop them in place
		out := ancestorSet(ar, ix, noAttrs(s), true)
		return out.OrWith(attrs)
	case ast.AxisAncestor:
		sp := noAttrs(s)
		out := descendantSet(ar, ix, sp, false)
		return addAttrsWithOwnerIn(ix, out, descendantSet(ar, ix, sp, true))
	case ast.AxisAncestorOrSelf:
		attrs := attrMembers(ar, ix, s)
		reach := descendantSet(ar, ix, noAttrs(s), true)
		// reach is fresh, so the attribute marking may run in place:
		// owners are never attributes, so the reads and writes are
		// disjoint positions.
		return addAttrsWithOwnerIn(ix, reach, reach).OrWith(attrs)
	case ast.AxisFollowingSibling:
		return precedingSiblingSet(ar, ix, s)
	case ast.AxisPrecedingSibling:
		return followingSiblingSet(ar, ix, s)
	case ast.AxisFollowing:
		// following(n) ∩ S ≠ ∅. Tree nodes: the preceding image; attribute
		// n: following(attr) = every non-attribute node after it in
		// document order.
		sp := noAttrs(s)
		out := precedingSet(ar, ix, sp)
		if maxOrd := sp.MaxOrd(); maxOrd >= 0 {
			orAttrsBelow(ix, out, maxOrd)
		}
		return out
	case ast.AxisPreceding:
		// preceding(attr) = preceding(owner).
		out := followingSet(ar, ix, noAttrs(s))
		return addAttrsWithOwnerIn(ix, out, out)
	case ast.AxisAttribute:
		return attributeInverseSet(ar, ix, s)
	default:
		return ar.New(doc)
	}
}

// addMemberAttrs marks the attributes of every member of s into out.
func addMemberAttrs(out, s Set) {
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		for _, a := range nodes[i].Attrs {
			out.AddOrd(int(a.Ord))
		}
	})
}

// attrMembers returns the attribute members of s as a fresh set
// (s ∧ attrMask, word-parallel when the index is available).
func attrMembers(ar *Arena, ix *xmltree.Index, s Set) Set {
	out := ar.New(s.Doc)
	if ix != nil {
		for i, w := range ix.AttrMask() {
			out.Words[i] = s.Words[i] & w
		}
		return out
	}
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		if nodes[i].Type == xmltree.AttributeNode {
			out.AddOrd(i)
		}
	})
	return out
}

// orAttrsBelow marks every attribute with Ord strictly below maxOrd
// into out.
func orAttrsBelow(ix *xmltree.Index, out Set, maxOrd int) {
	if ix != nil {
		aw := ix.AttrMask()
		full := maxOrd >> 6
		for wi := 0; wi < full; wi++ {
			out.Words[wi] |= aw[wi]
		}
		if r := uint(maxOrd) & 63; r != 0 {
			out.Words[full] |= aw[full] & (uint64(1)<<r - 1)
		}
		return
	}
	for _, n := range out.Doc.Nodes {
		if n.Type == xmltree.AttributeNode && int(n.Ord) < maxOrd {
			out.AddOrd(int(n.Ord))
		}
	}
}

// TestSet returns the set of nodes matching a node test under axis a (the
// axis determines the principal node type). Heap-allocating compatibility
// entry point; engines use TestSetCached or TestSetArena.
func TestSet(doc *xmltree.Document, a ast.Axis, t ast.NodeTest) Set {
	return TestSetArena(nil, doc, a, t)
}

// TestSetArena is TestSet allocating through ar (nil falls back to the
// heap).
func TestSetArena(ar *Arena, doc *xmltree.Document, a ast.Axis, t ast.NodeTest) Set {
	o := ar.New(doc)
	principal := xmltree.ElementNode
	if a == ast.AxisAttribute {
		principal = xmltree.AttributeNode
	}
	for i, n := range doc.Nodes {
		match := false
		switch t.Kind {
		case ast.TestName:
			match = n.Type == principal && n.Name == t.Name
		case ast.TestStar:
			match = n.Type == principal
		case ast.TestText:
			match = n.Type == xmltree.TextNode
		case ast.TestComment:
			match = n.Type == xmltree.CommentNode
		case ast.TestPI:
			match = n.Type == xmltree.ProcInstNode && (t.Name == "" || n.Name == t.Name)
		case ast.TestNode:
			match = true
		}
		if match {
			o.AddOrd(i)
		}
	}
	return o
}

// TestSetCached is TestSet backed by the document index: the membership
// bitset for each distinct (principal, test) pair is computed once per
// document — from the index's per-tag and per-kind node lists rather
// than a full scan — and shared by every subsequent evaluation. The
// returned Set aliases the cached words and is strictly read-only;
// callers may only combine it with And/Or (which allocate fresh sets)
// or use it as the right-hand argument of AndWith/OrWith/AndNotWith.
// The cached words are never arena-pooled.
func TestSetCached(ix *xmltree.Index, a ast.Axis, t ast.NodeTest) Set {
	doc := ix.Doc()
	principal := xmltree.ElementNode
	if a == ast.AxisAttribute {
		principal = xmltree.AttributeNode
	}
	// Only the principal node type matters, not the axis itself, so sets
	// are shared across axes and across evaluations.
	key := xmltree.TestKey{Principal: principal, Kind: int(t.Kind), Name: t.Name}
	words := ix.TestWords(key, func() []uint64 { return testWords(ix, principal, t) })
	return Set{Doc: doc, Words: words}
}

// testWords builds the membership bitset for a node test from the index
// lists, touching only matching nodes instead of comparing every node.
func testWords(ix *xmltree.Index, principal xmltree.NodeType, t ast.NodeTest) []uint64 {
	doc := ix.Doc()
	n := len(doc.Nodes)
	words := make([]uint64, WordCount(n))
	set := func(ord int) { words[ord>>6] |= 1 << (uint(ord) & 63) }
	mark := func(nodes []*xmltree.Node) {
		for _, m := range nodes {
			set(int(m.Ord))
		}
	}
	switch t.Kind {
	case ast.TestName:
		if principal == xmltree.AttributeNode {
			mark(ix.AttributesByName(t.Name))
		} else {
			mark(ix.ElementsByTag(t.Name))
		}
	case ast.TestStar:
		if principal == xmltree.AttributeNode {
			copy(words, ix.AttrMask())
		} else {
			mark(ix.Elements())
		}
	case ast.TestText:
		mark(ix.Texts())
	case ast.TestComment:
		mark(ix.Comments())
	case ast.TestPI:
		for _, m := range ix.ProcInsts() {
			if t.Name == "" || m.Name == t.Name {
				set(int(m.Ord))
			}
		}
	case ast.TestNode:
		(Set{Doc: doc, Words: words}).fill()
	}
	return words
}

// LabelSet returns the set of nodes carrying the extra label l
// (Remark 3.1).
func LabelSet(doc *xmltree.Document, l string) Set { return LabelSetArena(nil, doc, l) }

// LabelSetArena is LabelSet allocating through ar.
func LabelSetArena(ar *Arena, doc *xmltree.Document, l string) Set {
	o := ar.New(doc)
	doc.EachLabeled(l, func(ord int) { o.AddOrd(ord) })
	return o
}

func childSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	o := ar.New(s.Doc)
	if ix != nil {
		// Sparse: walk each member's child chain, O(|S| + |result|).
		// The flat child/sibling arrays never point at attributes.
		firstChild, next := ix.FirstChildOrds(), ix.NextSiblingOrds()
		s.ForEachOrd(func(i int) {
			for j := firstChild[i]; j >= 0; j = next[j] {
				o.AddOrd(int(j))
			}
		})
		return o
	}
	for i, n := range s.Doc.Nodes {
		if n.Type == xmltree.AttributeNode {
			continue
		}
		if n.Parent != nil && s.HasOrd(int(n.Parent.Ord)) {
			o.AddOrd(i)
		}
	}
	return o
}

func parentSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	o := ar.New(s.Doc)
	if ix != nil {
		parent := ix.ParentOrds()
		s.ForEachOrd(func(i int) {
			if p := parent[i]; p >= 0 {
				o.AddOrd(int(p))
			}
		})
		return o
	}
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		if p := nodes[i].Parent; p != nil {
			o.AddOrd(int(p.Ord))
		}
	})
	return o
}

// descendantSet exploits that Document.Nodes is in document order: a
// single forward pass sees parents before children. The pass computes
// the strict (non-self) descendants; the or-self part is a single
// word-parallel OrWith(s) afterwards — the propagation condition
// s[p] ∨ o[p] is unchanged by it because parents reached "or-self"
// are in s already.
func descendantSet(ar *Arena, ix *xmltree.Index, s Set, orSelf bool) Set {
	o := ar.New(s.Doc)
	if ix != nil {
		parent := ix.ParentOrds()
		aw := ix.AttrMask()
		sw, ow := s.Words, o.Words
		for i, p := range parent {
			if p >= 0 && aw[i>>6]>>(uint(i)&63)&1 == 0 &&
				(sw[p>>6]|ow[p>>6])>>(uint(p)&63)&1 != 0 {
				ow[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	} else {
		for i, n := range s.Doc.Nodes {
			if n.Type == xmltree.AttributeNode {
				continue
			}
			if n.Parent != nil && (s.HasOrd(int(n.Parent.Ord)) || o.HasOrd(int(n.Parent.Ord))) {
				o.AddOrd(i)
			}
		}
	}
	if orSelf {
		o.OrWith(s)
	}
	return o
}

// ancestorSet propagates upward with a single backward pass (children are
// seen before parents in reverse document order). As in descendantSet,
// the strict ancestors are computed by the pass and the or-self part is
// one word-parallel OrWith(s). Attribute members propagate to their
// owner like any child.
func ancestorSet(ar *Arena, ix *xmltree.Index, s Set, orSelf bool) Set {
	o := ar.New(s.Doc)
	if ix != nil {
		parent := ix.ParentOrds()
		for i := len(parent) - 1; i >= 0; i-- {
			if (s.HasOrd(i) || o.HasOrd(i)) && parent[i] >= 0 {
				o.AddOrd(int(parent[i]))
			}
		}
	} else {
		nodes := s.Doc.Nodes
		for i := len(nodes) - 1; i >= 0; i-- {
			if (s.HasOrd(i) || o.HasOrd(i)) && nodes[i].Parent != nil {
				o.AddOrd(int(nodes[i].Parent.Ord))
			}
		}
	}
	if orSelf {
		o.OrWith(s)
	}
	return o
}

func followingSiblingSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	o := ar.New(s.Doc)
	markSiblings(ix, s, o, false)
	return o
}

func precedingSiblingSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	o := ar.New(s.Doc)
	markSiblings(ix, s, o, true)
	return o
}

// markSiblings marks, for every node whose sibling list contains an S
// member, the siblings after (or before, when reverse) the member. The
// union over members collapses to a suffix after the first member
// (resp. a prefix before the last member) of each sibling chain.
func markSiblings(ix *xmltree.Index, s Set, o Set, reverse bool) {
	if ix != nil {
		firstChild, next := ix.FirstChildOrds(), ix.NextSiblingOrds()
		for _, c := range firstChild {
			if c < 0 {
				continue
			}
			if !reverse {
				seen := false
				for j := c; j >= 0; j = next[j] {
					if seen {
						o.AddOrd(int(j))
					}
					if s.HasOrd(int(j)) {
						seen = true
					}
				}
			} else {
				last := int32(-1)
				for j := c; j >= 0; j = next[j] {
					if s.HasOrd(int(j)) {
						last = j
					}
				}
				if last >= 0 {
					for j := c; j != last; j = next[j] {
						o.AddOrd(int(j))
					}
				}
			}
		}
		return
	}
	for _, parent := range s.Doc.Nodes {
		if len(parent.Children) == 0 {
			continue
		}
		kids := parent.Children
		if !reverse {
			seen := false
			for _, c := range kids {
				if seen {
					o.AddOrd(int(c.Ord))
				}
				if s.HasOrd(int(c.Ord)) {
					seen = true
				}
			}
		} else {
			seen := false
			for i := len(kids) - 1; i >= 0; i-- {
				c := kids[i]
				if seen {
					o.AddOrd(int(c.Ord))
				}
				if s.HasOrd(int(c.Ord)) {
					seen = true
				}
			}
		}
	}
}

// followingSet uses the identity
// following(S) = desc-or-self(following-sibling(anc-or-self(S))),
// extended for attribute members, whose following axis additionally covers
// the owner's subtree below the attribute. Never mutates s.
func followingSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	tree, attrOwnersKids := splitAttrs(ar, s)
	out := descendantSet(ar, ix, followingSiblingSet(ar, ix, ancestorSet(ar, ix, tree, true)), true)
	if attrOwnersKids != nil {
		out.OrWith(descendantSet(ar, ix, *attrOwnersKids, true))
	}
	return dropAttrs(ix, out)
}

// precedingSet uses preceding(S) = desc-or-self(preceding-sibling(anc-or-self(S)));
// an attribute member behaves like its owning element (splitAttrs
// anchors it at the owner). Never mutates s.
func precedingSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	tree, _ := splitAttrs(ar, s)
	return dropAttrs(ix, descendantSet(ar, ix, precedingSiblingSet(ar, ix, ancestorSet(ar, ix, tree, true)), true))
}

// splitAttrs separates attribute members from tree members. For each
// attribute member, the owner is added to the tree set (an attribute's
// ancestors/following structure is anchored there) and the owner's
// children are collected so followingSet can include their subtrees.
func splitAttrs(ar *Arena, s Set) (tree Set, ownersKids *Set) {
	tree = ar.New(s.Doc)
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		n := nodes[i]
		if n.Type != xmltree.AttributeNode {
			tree.AddOrd(i)
			return
		}
		tree.AddOrd(int(n.Parent.Ord))
		if ownersKids == nil {
			k := ar.New(s.Doc)
			ownersKids = &k
		}
		for _, c := range n.Parent.Children {
			ownersKids.AddOrd(int(c.Ord))
		}
	})
	return tree, ownersKids
}

// dropAttrs removes attribute members from s in place and returns s.
// The receiver must be exclusively owned.
func dropAttrs(ix *xmltree.Index, s Set) Set {
	if ix != nil {
		for i, w := range ix.AttrMask() {
			s.Words[i] &^= w
		}
		return s
	}
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		if nodes[i].Type == xmltree.AttributeNode {
			s.ClearOrd(i)
		}
	})
	return s
}

func attributeSet(ar *Arena, s Set) Set {
	o := ar.New(s.Doc)
	addMemberAttrs(o, s)
	return o
}

// attributeInverseSet maps attribute members to their owners.
func attributeInverseSet(ar *Arena, ix *xmltree.Index, s Set) Set {
	o := ar.New(s.Doc)
	if ix != nil {
		parent := ix.ParentOrds()
		for wi, w := range ix.AttrMask() {
			m := s.Words[wi] & w
			base := wi << 6
			for m != 0 {
				i := base + bits.TrailingZeros64(m)
				o.AddOrd(int(parent[i]))
				m &= m - 1
			}
		}
		return o
	}
	nodes := s.Doc.Nodes
	s.ForEachOrd(func(i int) {
		if n := nodes[i]; n.Type == xmltree.AttributeNode {
			o.AddOrd(int(n.Parent.Ord))
		}
	})
	return o
}

// addAttrsWithOwnerIn marks every attribute whose owner is in ownerSet
// into out, in place, and returns out. out must be exclusively owned.
// out and ownerSet may be the same set: owners are never attributes, so
// the positions written are disjoint from the positions read.
func addAttrsWithOwnerIn(ix *xmltree.Index, out, ownerSet Set) Set {
	if ix != nil {
		parent := ix.ParentOrds()
		attrs := Set{Doc: out.Doc, Words: ix.AttrMask()}
		attrs.ForEachOrd(func(i int) {
			if ownerSet.HasOrd(int(parent[i])) {
				out.AddOrd(i)
			}
		})
		return out
	}
	for _, n := range out.Doc.Nodes {
		if n.Type == xmltree.AttributeNode && ownerSet.HasOrd(int(n.Parent.Ord)) {
			out.AddOrd(int(n.Ord))
		}
	}
	return out
}
