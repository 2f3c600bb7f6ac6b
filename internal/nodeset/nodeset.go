// Package nodeset provides dense node-set representations and O(|D|) set
// operations for all XPath axes and their inverses. It is the algebraic
// substrate shared by the corelinear evaluator (Proposition 2.7) and the
// parallel evaluator (Remark 5.6): the former applies the operations
// sequentially, the latter partitions them across goroutines.
//
// A Set is a membership bitset indexed by document order (Node.Ord),
// word-packed 64 nodes per uint64 so the pointwise set algebra (And, Or,
// Not, AndWith) runs word-parallel: one ALU operation covers 64 nodes,
// and the memory traffic per document pass is 1/8th of the previous
// one-byte-per-node layout. Allocation of the word buffers is pooled
// through Arena (see arena.go), which is what keeps the warm evaluation
// paths of the engines allocation-free.
package nodeset

import (
	"math/bits"

	"xpathcomplexity/internal/xmltree"
)

// Set is a node set over one document, represented as a word-packed
// bitset: bit i%64 of Words[i/64] is the membership of the node with
// Ord i. Words always holds WordCount(len(Doc.Nodes)) words and every
// bit at position >= len(Doc.Nodes) is zero (the tail invariant); all
// operations preserve it.
type Set struct {
	// Doc is the document the set ranges over.
	Doc *xmltree.Document
	// Words holds membership, 64 nodes per word, document order.
	Words []uint64
}

// WordCount returns the number of uint64 words covering nbits bits.
func WordCount(nbits int) int { return (nbits + 63) >> 6 }

// tailMask returns the mask of valid bits in the last word of a set
// over nbits bits (all ones when nbits is a multiple of 64).
func tailMask(nbits int) uint64 {
	if r := nbits & 63; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// New returns the empty set over doc, heap-allocated. Prefer
// Arena.New on evaluation hot paths.
func New(doc *xmltree.Document) Set {
	return Set{Doc: doc, Words: make([]uint64, WordCount(len(doc.Nodes)))}
}

// Full returns the set of all nodes of doc.
func Full(doc *xmltree.Document) Set { return (*Arena)(nil).Full(doc) }

// FromNodes builds a set from explicit members.
func FromNodes(doc *xmltree.Document, nodes ...*xmltree.Node) Set {
	return (*Arena)(nil).FromNodes(doc, nodes...)
}

// fill sets every bit and restores the tail invariant. The receiver's
// words need not be zeroed beforehand.
func (s Set) fill() {
	for i := range s.Words {
		s.Words[i] = ^uint64(0)
	}
	if n := len(s.Words); n > 0 {
		s.Words[n-1] &= tailMask(len(s.Doc.Nodes))
	}
}

// Clone copies the set onto the heap. Prefer Arena.Clone on hot paths.
func (s Set) Clone() Set { return (*Arena)(nil).Clone(s) }

// Reset clears every bit in place.
func (s Set) Reset() {
	for i := range s.Words {
		s.Words[i] = 0
	}
}

// CopyFrom overwrites s with t's bits. The two sets must range over the
// same document.
func (s Set) CopyFrom(t Set) { copy(s.Words, t.Words) }

// Add inserts a node.
func (s Set) Add(n *xmltree.Node) { s.Words[n.Ord>>6] |= 1 << (uint(n.Ord) & 63) }

// AddOrd inserts the node with document order i.
func (s Set) AddOrd(i int) { s.Words[i>>6] |= 1 << (uint(i) & 63) }

// ClearOrd removes the node with document order i.
func (s Set) ClearOrd(i int) { s.Words[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports membership.
func (s Set) Has(n *xmltree.Node) bool { return s.HasOrd(int(n.Ord)) }

// HasOrd reports membership of the node with document order i.
func (s Set) HasOrd(i int) bool { return s.Words[i>>6]>>(uint(i)&63)&1 != 0 }

// Empty reports whether no node is a member.
func (s Set) Empty() bool {
	for _, w := range s.Words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members (one popcount per word).
func (s Set) Count() int {
	n := 0
	for _, w := range s.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// MaxOrd returns the largest member Ord, or -1 for the empty set.
func (s Set) MaxOrd() int {
	for wi := len(s.Words) - 1; wi >= 0; wi-- {
		if w := s.Words[wi]; w != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// ForEachOrd calls f for every member Ord in increasing document order,
// skipping empty words, so iteration costs O(words + members).
func (s Set) ForEachOrd(f func(ord int)) {
	for wi, w := range s.Words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Nodes materializes the members in document order.
func (s Set) Nodes() []*xmltree.Node {
	out := make([]*xmltree.Node, 0, s.Count())
	return s.AppendNodes(out)
}

// AppendNodes appends the members to dst in document order.
func (s Set) AppendNodes(dst []*xmltree.Node) []*xmltree.Node {
	nodes := s.Doc.Nodes
	for wi, w := range s.Words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, nodes[base+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return dst
}

// And returns s ∩ t, heap-allocated. Prefer Arena.And on hot paths.
func (s Set) And(t Set) Set { return (*Arena)(nil).And(s, t) }

// Or returns s ∪ t, heap-allocated. Prefer Arena.Or on hot paths.
func (s Set) Or(t Set) Set { return (*Arena)(nil).Or(s, t) }

// Not returns the complement of s over all document nodes,
// heap-allocated. Prefer Arena.Not on hot paths.
func (s Set) Not() Set { return (*Arena)(nil).Not(s) }

// AndWith intersects t into s in place and returns s. The receiver must
// be exclusively owned (freshly built, never a cached/shared set); t is
// not modified, so shared sets are fine on the right.
func (s Set) AndWith(t Set) Set {
	for i, w := range t.Words {
		s.Words[i] &= w
	}
	return s
}

// OrWith unions t into s in place and returns s. Same ownership rules
// as AndWith.
func (s Set) OrWith(t Set) Set {
	for i, w := range t.Words {
		s.Words[i] |= w
	}
	return s
}

// AndNotWith removes t's members from s in place and returns s. Same
// ownership rules as AndWith.
func (s Set) AndNotWith(t Set) Set {
	for i, w := range t.Words {
		s.Words[i] &^= w
	}
	return s
}

// NotInPlace complements s in place (tail invariant preserved) and
// returns s. The receiver must be exclusively owned.
func (s Set) NotInPlace() Set {
	for i := range s.Words {
		s.Words[i] = ^s.Words[i]
	}
	if n := len(s.Words); n > 0 {
		s.Words[n-1] &= tailMask(len(s.Doc.Nodes))
	}
	return s
}
