package xmltree

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Index is the precomputed access-path layer of a document: per-tag node
// lists, per-kind node lists, and the flat first-child/next-sibling/
// parent arrays of the document's link core. Together with the pre/post
// numbering already carried by every node it turns the axis evaluations
// of the engines from tree walks into list slices and binary searches
// (the SXSI/"whole query optimization" direction: the paper settles the
// asymptotics, the index buys the constant factors).
//
// An Index is immutable once built and is shared freely across
// goroutines. It is built lazily behind Document.Index and cached on the
// document; (re)numbering a document through the single build entry point
// (Document.number, called by NewDocument and Copy) invalidates it.
type Index struct {
	doc *Document

	// elemsByTag maps each element tag to its elements in document order
	// (equivalently: increasing Pre order).
	elemsByTag map[string][]*Node
	// attrsByName maps each attribute name to its attribute nodes in
	// document order.
	attrsByName map[string][]*Node
	// elements, texts, comments, procInsts list all nodes of one kind in
	// document order; treeNodes lists every non-attribute node (what the
	// node() test selects on the tree axes).
	elements  []*Node
	texts     []*Node
	comments  []*Node
	procInsts []*Node
	treeNodes []*Node

	// links are the document's first-child, next-sibling and parent
	// arrays, indexed by Node.Ord and holding the Ord of the respective
	// neighbour, or -1; attribute entries carry parent only. Shared
	// with the document's link core, never copied. With attrMask they
	// let the dense set operations of package nodeset run over
	// contiguous memory instead of chasing Node pointers.
	links
	// attrMask flags attribute nodes by Ord, word-packed (bit Ord%64 of
	// word Ord/64) in the layout of package nodeset's bitsets, so
	// attribute filtering runs word-parallel.
	attrMask []uint64

	// words holds the node-test membership bitsets package nodeset
	// computes lazily (TestWords). Values are immutable once published.
	wordsMu sync.RWMutex
	words   map[TestKey][]uint64
}

// TestKey identifies a node-test membership bitset cached on an index:
// the principal node type of the step's axis, and the node test's kind
// (package ast's TestKind) and name.
type TestKey struct {
	Principal NodeType
	Kind      int
	Name      string
}

// Index returns the document's index, building it on first use. The
// build is concurrency-safe: any number of goroutines may race on the
// first call and all observe the same index.
func (d *Document) Index() *Index {
	if ix := d.idx.Load(); ix != nil {
		d.idxReuses.Add(1)
		return ix
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix := d.idx.Load(); ix != nil {
		d.idxReuses.Add(1)
		return ix
	}
	start := time.Now()
	ix := buildIndex(d)
	d.idxBuilds.Add(1)
	d.idxBuildNanos.Add(time.Since(start).Nanoseconds())
	d.idx.Store(ix)
	return ix
}

// IndexStats reports how often the document's index has been (re)built
// and reused, and the cumulative build wall time. The counts survive
// invalidation, so a renumber-heavy workload shows up as Builds > 1.
// xmltree sits below the observability layer, so the stats are plain
// values here; the facade copies them into a metrics registry.
type IndexStats struct {
	// Builds and Reuses count Index() calls that built vs reused.
	Builds, Reuses int64
	// BuildNanos is the total wall time spent building, in nanoseconds.
	BuildNanos int64
}

// IndexStats returns the document's index statistics.
func (d *Document) IndexStats() IndexStats {
	return IndexStats{
		Builds:     d.idxBuilds.Load(),
		Reuses:     d.idxReuses.Load(),
		BuildNanos: d.idxBuildNanos.Load(),
	}
}

// invalidateIndex drops the cached index; called from the single build
// entry point (number) so a re-finalized tree never serves stale lists.
func (d *Document) invalidateIndex() {
	d.idxMu.Lock()
	d.idx.Store(nil)
	d.idxMu.Unlock()
}

// buildIndex builds the index over the document's link core: the links
// are aliased, not copied, and the per-name ord lists become node
// lists. A tree-built document fills its core first, from one walk.
func buildIndex(d *Document) *Index {
	n := len(d.Nodes)
	if d.parent == nil {
		d.links = newLinks(n)
		treeLinks(d.Nodes, d.links)
		d.tagOrds, d.attrOrds = treeOrdLists(d.Nodes)
	}
	ix := &Index{
		doc:      d,
		links:    d.links,
		attrMask: make([]uint64, (n+63)>>6),
	}
	ix.elemsByTag = nodeLists(d, d.tagOrds)
	ix.attrsByName = nodeLists(d, d.attrOrds)
	if d.col == nil {
		// The node lists hold what the ord lists did; only a columnar
		// store keeps its ord lists, for the next hydration.
		d.tagOrds, d.attrOrds = nil, nil
	}

	var nelem, ntext, ncomment, npi, ntree int
	for _, m := range d.Nodes {
		switch m.Type {
		case ElementNode:
			nelem++
		case TextNode:
			ntext++
		case CommentNode:
			ncomment++
		case ProcInstNode:
			npi++
		}
		if m.Type != AttributeNode {
			ntree++
		}
	}
	ix.elements = make([]*Node, 0, nelem)
	ix.texts = make([]*Node, 0, ntext)
	ix.comments = make([]*Node, 0, ncomment)
	ix.procInsts = make([]*Node, 0, npi)
	ix.treeNodes = make([]*Node, 0, ntree)
	for _, m := range d.Nodes {
		switch m.Type {
		case ElementNode:
			ix.elements = append(ix.elements, m)
		case AttributeNode:
			ix.attrMask[m.Ord>>6] |= 1 << (uint(m.Ord) & 63)
			continue
		case TextNode:
			ix.texts = append(ix.texts, m)
		case CommentNode:
			ix.comments = append(ix.comments, m)
		case ProcInstNode:
			ix.procInsts = append(ix.procInsts, m)
		}
		ix.treeNodes = append(ix.treeNodes, m)
	}
	return ix
}

// nodeLists maps per-name ord lists to node lists, carved from one
// backing.
func nodeLists(d *Document, ords map[string][]int32) map[string][]*Node {
	total := 0
	for _, l := range ords {
		total += len(l)
	}
	backing := make([]*Node, 0, total)
	out := make(map[string][]*Node, len(ords))
	for name, l := range ords {
		start := len(backing)
		for _, o := range l {
			backing = append(backing, d.Nodes[o])
		}
		out[name] = backing[start:len(backing):len(backing)]
	}
	return out
}

// Doc returns the indexed document.
func (ix *Index) Doc() *Document { return ix.doc }

// ElementsByTag returns every element with the given tag in document
// order. The returned slice is shared and must not be modified.
func (ix *Index) ElementsByTag(tag string) []*Node { return ix.elemsByTag[tag] }

// AttributesByName returns every attribute node with the given name in
// document order. The returned slice is shared and must not be modified.
func (ix *Index) AttributesByName(name string) []*Node { return ix.attrsByName[name] }

// Elements returns all element nodes in document order (shared slice).
func (ix *Index) Elements() []*Node { return ix.elements }

// Texts returns all text nodes in document order (shared slice).
func (ix *Index) Texts() []*Node { return ix.texts }

// Comments returns all comment nodes in document order (shared slice).
func (ix *Index) Comments() []*Node { return ix.comments }

// ProcInsts returns all processing instructions in document order
// (shared slice).
func (ix *Index) ProcInsts() []*Node { return ix.procInsts }

// TreeNodes returns all non-attribute nodes in document order (shared
// slice): the candidate list of the node() test on the tree axes.
func (ix *Index) TreeNodes() []*Node { return ix.treeNodes }

// ParentOrds returns the flat parent array indexed by Ord (-1 = no
// parent). Shared storage; read-only.
func (ix *Index) ParentOrds() []int32 { return ix.parent }

// FirstChildOrds returns the flat first-child array indexed by Ord
// (-1 = no children; attribute entries are -1). Shared storage;
// read-only.
func (ix *Index) FirstChildOrds() []int32 { return ix.firstChild }

// NextSiblingOrds returns the flat next-sibling array indexed by Ord
// (-1 = last sibling; attribute entries are -1). Shared storage;
// read-only.
func (ix *Index) NextSiblingOrds() []int32 { return ix.nextSibling }

// AttrMask returns the attribute membership as a word-packed bitset
// (bit Ord%64 of word Ord/64), matching the layout of package nodeset.
// Shared storage; read-only.
func (ix *Index) AttrMask() []uint64 { return ix.attrMask }

// SubtreeSlice returns the contiguous sublist of list lying strictly
// inside n's subtree. list must be sorted by document order and contain
// no attribute nodes (any of the Index node lists qualifies); because
// pre-order numbers a subtree contiguously, the proper descendants form
// one slice, found by two binary searches. The result aliases list and
// must not be modified.
func SubtreeSlice(list []*Node, n *Node) []*Node {
	if n.Type == AttributeNode || len(list) == 0 {
		return nil
	}
	// First list member with Pre > n.Pre.
	lo := sort.Search(len(list), func(i int) bool { return list[i].Pre > n.Pre })
	// Among those, descendants (Post < n.Post) precede non-descendants.
	hi := lo + sort.Search(len(list)-lo, func(i int) bool { return list[lo+i].Post > n.Post })
	return list[lo:hi]
}

// FollowingSlice returns the suffix of list containing exactly the nodes
// on n's following axis: after n in document order and not descendants
// of n. list must be sorted by document order and contain no attribute
// nodes. For an attribute context node the following axis contains every
// later non-attribute node, including the owner's subtree. The result
// aliases list and must not be modified.
func FollowingSlice(list []*Node, n *Node) []*Node {
	if len(list) == 0 {
		return nil
	}
	if n.Type == AttributeNode {
		// Attributes share the owner's Pre; everything strictly after it
		// (the owner's subtree onward) follows the attribute.
		lo := sort.Search(len(list), func(i int) bool { return list[i].Pre > n.Pre })
		return list[lo:]
	}
	lo := sort.Search(len(list), func(i int) bool { return list[i].Pre > n.Pre })
	lo += sort.Search(len(list)-lo, func(i int) bool { return list[lo+i].Post > n.Post })
	return list[lo:]
}

// PrecedingScan appends to dst the members of list on n's preceding
// axis: before n in document order, excluding n's ancestors. list must
// be sorted by document order and contain no attribute nodes. An
// attribute context node behaves like its owning element.
func PrecedingScan(dst []*Node, list []*Node, n *Node) []*Node {
	anchor := n
	if n.Type == AttributeNode {
		anchor = n.Parent
		if anchor == nil {
			return dst
		}
	}
	hi := sort.Search(len(list), func(i int) bool { return list[i].Pre >= anchor.Pre })
	for _, m := range list[:hi] {
		if m.Post < anchor.Post { // not an ancestor
			dst = append(dst, m)
		}
	}
	return dst
}

// TestWords returns the membership bitset cached under key, computing
// it with build on first use. Concurrent first calls may run build more
// than once; the first stored value wins, so build must produce values
// that are interchangeable and immutable once published. The key is a
// plain struct, so a lookup allocates nothing.
func (ix *Index) TestWords(key TestKey, build func() []uint64) []uint64 {
	ix.wordsMu.RLock()
	v, ok := ix.words[key]
	ix.wordsMu.RUnlock()
	if ok {
		return v
	}
	v = build()
	ix.wordsMu.Lock()
	if ix.words == nil {
		ix.words = make(map[TestKey][]uint64)
	}
	if old, ok := ix.words[key]; ok {
		v = old
	} else {
		ix.words[key] = v
	}
	ix.wordsMu.Unlock()
	return v
}

// indexCache is the cached-index slot embedded in Document. It lives
// here (not in node.go) to keep all index machinery in one file.
type indexCache struct {
	idxMu sync.Mutex
	idx   atomic.Pointer[Index]
	// Build/reuse statistics, reported by Document.IndexStats.
	idxBuilds     atomic.Int64
	idxReuses     atomic.Int64
	idxBuildNanos atomic.Int64
}
