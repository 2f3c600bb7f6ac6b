package parallel

import (
	"math/bits"

	"xpathcomplexity/internal/nodeset"
	"xpathcomplexity/internal/xmltree"
)

// ncops.go implements the axis *closure* operations (descendant-or-self,
// ancestor-or-self) with O(log |D|)-depth algorithms — the actual NC²
// technique behind Remark 5.6 and LOGCFL ⊆ NC². The sequential set
// algebra of package nodeset computes these closures with a single
// document-order sweep, which is O(|D|) *depth*: a chain document defeats
// any parallelization of that loop. The algorithms here have
// polylogarithmic dependency depth:
//
//   - descendant-or-self(S): pointer doubling on the parent relation.
//     anc[k][n] is the 2^k-th ancestor of n; after round k, reach[n]
//     says whether an ancestor within distance 2^k (or n itself) is in
//     S. Each round is a pointwise (perfectly parallel) pass; ⌈log
//     depth⌉ rounds suffice.
//
//   - ancestor-or-self(S): n qualifies iff some S-member lies in n's
//     subtree, i.e. has preorder number in n's subtree interval. A
//     sparse range-min table over "postorder of the S-member at each
//     preorder position" is built in ⌈log |D|⌉ pointwise rounds; each
//     node then decides with one O(1) range query.
//
// Both are verified against the sequential closures on random documents;
// the ablation benchmark compares their wall time (on a single-core host
// the doubling versions lose — they do Θ(|D| log |D|) work — which is
// precisely the classic NC work-vs-depth trade-off).

// ncIndex precomputes per-document tables for the log-depth closures; it
// is built once per evaluation that requests NC closures.
type ncIndex struct {
	doc *xmltree.Document
	// parent[n] is the parent's Ord, or -1.
	parent []int32
	// preOf[p] is the Ord of the tree node with preorder number p (the
	// conceptual root has preorder 0); attributes are absent.
	preOf []int32
	// levels for pointer doubling: jump[k][n] = Ord of the 2^k-th
	// ancestor, or -1.
	jump [][]int32
}

func buildNCIndex(doc *xmltree.Document) *ncIndex {
	n := len(doc.Nodes)
	ix := &ncIndex{
		doc:    doc,
		parent: make([]int32, n),
	}
	var maxPre int32
	for _, nd := range doc.Nodes {
		if nd.Type != xmltree.AttributeNode && nd.Pre > maxPre {
			maxPre = nd.Pre
		}
	}
	ix.preOf = make([]int32, maxPre+1)
	for i := range ix.preOf {
		ix.preOf[i] = -1
	}
	depth := 0
	for _, nd := range doc.Nodes {
		if nd.Parent != nil {
			ix.parent[nd.Ord] = nd.Parent.Ord
		} else {
			ix.parent[nd.Ord] = -1
		}
		if nd.Type != xmltree.AttributeNode {
			ix.preOf[nd.Pre] = nd.Ord
			if d := nd.Depth(); d > depth {
				depth = d
			}
		}
	}
	// Pointer-doubling levels.
	levels := 1
	for (1 << levels) < depth+1 {
		levels++
	}
	if levels < 1 {
		levels = 1
	}
	ix.jump = make([][]int32, levels+1)
	ix.jump[0] = ix.parent
	for k := 1; k <= levels; k++ {
		prev := ix.jump[k-1]
		cur := make([]int32, n)
		for i := 0; i < n; i++ {
			if prev[i] < 0 {
				cur[i] = -1
			} else {
				cur[i] = prev[prev[i]]
			}
		}
		ix.jump[k] = cur
	}
	return ix
}

// dosReach computes, by pointer doubling, reach[n] ⇔ some ancestor-or-
// self of n (tree nodes only) is a tree member of S. After round k the
// horizon is 2^k; ⌈log depth⌉ rounds suffice, each a pointwise pass.
func (e *evaluator) dosReach(ix *ncIndex, s nodeset.Set) []bool {
	n := len(e.doc.Nodes)
	reach := make([]bool, n)
	e.parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reach[i] = s.HasOrd(i) && e.doc.Nodes[i].Type != xmltree.AttributeNode
		}
	})
	for _, jumpK := range ix.jump {
		next := make([]bool, n)
		e.parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = reach[i]
				if !next[i] {
					if p := jumpK[i]; p >= 0 && reach[p] {
						next[i] = true
					}
				}
			}
		})
		reach = next
	}
	return reach
}

// descendantOrSelfDoubling computes descendant-or-self(S) with log-depth
// pointer doubling, matching nodeset.ApplyAxis(DescendantOrSelf, S)
// including its attribute behaviour (an attribute appears only as its own
// or-self member).
func (e *evaluator) descendantOrSelfDoubling(ix *ncIndex, s nodeset.Set) nodeset.Set {
	reach := e.dosReach(ix, s)
	n := len(e.doc.Nodes)
	out := e.arena.New(e.doc)
	// Word-aligned chunks: concurrent goroutines must never set bits in
	// the same output word.
	e.parallelForWords(len(out.Words), func(lw, hw int) {
		lo, hi := lw<<6, hw<<6
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if e.doc.Nodes[i].Type == xmltree.AttributeNode {
				if s.HasOrd(i) {
					out.AddOrd(i)
				}
				continue
			}
			if reach[i] {
				out.AddOrd(i)
			}
		}
	})
	return out
}

// descendantDoubling computes the proper-descendant image: a tree node
// qualifies iff its parent can reach an S member upward.
func (e *evaluator) descendantDoubling(ix *ncIndex, s nodeset.Set) nodeset.Set {
	reach := e.dosReach(ix, s)
	n := len(e.doc.Nodes)
	out := e.arena.New(e.doc)
	e.parallelForWords(len(out.Words), func(lw, hw int) {
		lo, hi := lw<<6, hw<<6
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if e.doc.Nodes[i].Type == xmltree.AttributeNode {
				continue
			}
			if p := ix.parent[i]; p >= 0 && reach[p] {
				out.AddOrd(i)
			}
		}
	})
	return out
}

// ancestorOrSelfRMQ computes ancestor-or-self(S) with a sparse-table
// range-min query over postorder numbers: node n qualifies iff some tree
// S-member m satisfies n.Pre ≤ m.Pre ∧ m.Post ≤ n.Post — i.e. the minimum
// Post among S-members with Pre ≥ n.Pre dips to ≤ n.Post within n's
// subtree. Because subtrees are contiguous in preorder, it suffices to
// query the range [n.Pre, end), where end is the first preorder position
// whose Post exceeds n.Post; using the suffix-min from n.Pre with an
// early bound works directly: min over [n.Pre, |pre|) of Post(member) —
// any member with smaller Post but outside the subtree would have Pre
// beyond the subtree only if its Post > n.Post, so the subtree test
// m.Post ≤ n.Post filters it. A suffix sparse table gives O(1) queries.
func (e *evaluator) ancestorRMQ(ix *ncIndex, s nodeset.Set, orSelf bool) nodeset.Set {
	npre := len(ix.preOf)
	const inf = int32(1 << 30)
	// Attribute members behave like their owning element (an attribute's
	// ancestors are the owner and its ancestors); seed owners.
	seed := s
	var attrOwners []int
	s.ForEachOrd(func(i int) {
		if e.doc.Nodes[i].Type == xmltree.AttributeNode {
			attrOwners = append(attrOwners, int(e.doc.Nodes[i].Parent.Ord))
		}
	})
	if len(attrOwners) > 0 {
		seed = e.arena.Clone(s)
		for _, o := range attrOwners {
			seed.AddOrd(o)
		}
	}
	// level 0: post numbers of S members by preorder position.
	levels := 1
	for (1 << levels) < npre {
		levels++
	}
	table := make([][]int32, levels+1)
	base := make([]int32, npre)
	e.parallelFor(npre, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			base[p] = inf
			if ord := ix.preOf[p]; ord >= 0 && seed.HasOrd(int(ord)) {
				base[p] = e.doc.Nodes[ord].Post
			}
		}
	})
	table[0] = base
	for k := 1; k <= levels; k++ {
		prev := table[k-1]
		half := 1 << (k - 1)
		cur := make([]int32, npre)
		e.parallelFor(npre, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				m := prev[p]
				if p+half < npre && prev[p+half] < m {
					m = prev[p+half]
				}
				cur[p] = m
			}
		})
		table[k] = cur
	}
	rangeMin := func(lo, hi int) int32 { // [lo, hi)
		if lo >= hi {
			return inf
		}
		k := bits.Len(uint(hi-lo)) - 1
		m := table[k][lo]
		if v := table[k][hi-(1<<k)]; v < m {
			m = v
		}
		return m
	}
	out := e.arena.New(e.doc)
	nodesN := len(e.doc.Nodes)
	e.parallelForWords(len(out.Words), func(lw, hw int) {
		lo, hi := lw<<6, hw<<6
		if hi > nodesN {
			hi = nodesN
		}
		for i := lo; i < hi; i++ {
			nd := e.doc.Nodes[i]
			if nd.Type == xmltree.AttributeNode {
				// Attributes never appear in ancestor(-or-self) images
				// except as their own or-self member.
				if orSelf && s.HasOrd(i) {
					out.AddOrd(i)
				}
				continue
			}
			// Nodes after nd in preorder either lie in nd's subtree
			// (Post < nd.Post) or wholly after it (Post > nd.Post), so a
			// suffix range-min with the ≤/< test decides membership.
			if orSelf {
				if rangeMin(int(nd.Pre), npre) <= nd.Post {
					out.AddOrd(i)
				}
			} else {
				if rangeMin(int(nd.Pre)+1, npre) < nd.Post {
					out.AddOrd(i)
				}
			}
		}
	})
	if !orSelf {
		// ancestor(attr) includes the owning element itself, which the
		// strict subtree test above excludes.
		for _, o := range attrOwners {
			out.AddOrd(o)
		}
	}
	return out
}
