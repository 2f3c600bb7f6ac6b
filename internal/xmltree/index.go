package xmltree

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Index is the precomputed access-path layer of a document, kept as
// ords (positions in Document.Nodes) over the link core: per-tag,
// per-attribute and per-kind ord lists, the flat first-child/
// next-sibling/parent arrays and the attribute mask. Ords in document
// order number every subtree contiguously (an element, then its
// attributes, then its descendants), so the subtree, following and
// preceding axes become slices of a sorted ord list and the node()
// test an ord range minus the attribute mask: the O(1) access to
// links, kinds and document order that the linear-time bounds assume,
// without a second, pointer-sized copy of the core (the SXSI/"whole
// query optimization" direction: the paper settles the asymptotics,
// the index buys the constant factors). Callers that need nodes read
// them as Document.Nodes[ord].
//
// An Index is immutable once built and is shared freely across
// goroutines. It is built lazily behind Document.Index and cached on the
// document; (re)numbering a document through the single build entry point
// (Document.number, called by NewDocument and Copy) invalidates it.
type Index struct {
	doc *Document

	// elemsByTag maps each element tag to its element ords in document
	// order, and attrsByName each attribute name to its attribute ords:
	// the link core's per-name lists, shared with it (a columnar
	// view's are its store's).
	elemsByTag  map[string][]int32
	attrsByName map[string][]int32
	// elements, texts, comments and procInsts list the ords of one node
	// kind in document order, carved from one backing.
	elements  []int32
	texts     []int32
	comments  []int32
	procInsts []int32

	// links are the document's first-child, next-sibling and parent
	// arrays, indexed by Node.Ord and holding the Ord of the respective
	// neighbour, or -1; attribute entries carry parent only. Shared
	// with the document's link core, never copied. With attrMask they
	// let the dense set operations of package nodeset and the VM's
	// sparse frontier run over contiguous memory instead of chasing
	// Node pointers.
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
// and the per-name ord lists are aliased, not copied; the per-kind
// lists and the attribute mask come from one pass over the node kinds.
// A tree-built document fills its core first, from one walk.
func buildIndex(d *Document) *Index {
	n := len(d.Nodes)
	if d.parent == nil {
		d.links = newLinks(n)
		treeLinks(d.Nodes, d.links)
		d.tagOrds, d.attrOrds = treeOrdLists(d.Nodes)
	}
	ix := &Index{
		doc:         d,
		elemsByTag:  d.tagOrds,
		attrsByName: d.attrOrds,
		links:       d.links,
		attrMask:    make([]uint64, (n+63)>>6),
	}
	var count [ProcInstNode + 1]int
	for _, m := range d.Nodes {
		count[m.Type]++
	}
	backing := make([]int32, n-count[RootNode]-count[AttributeNode])
	carve := func(t NodeType) []int32 {
		l := backing[:0:count[t]]
		backing = backing[count[t]:]
		return l
	}
	ix.elements = carve(ElementNode)
	ix.texts = carve(TextNode)
	ix.comments = carve(CommentNode)
	ix.procInsts = carve(ProcInstNode)
	for ord, m := range d.Nodes {
		o := int32(ord)
		switch m.Type {
		case ElementNode:
			ix.elements = append(ix.elements, o)
		case AttributeNode:
			ix.attrMask[ord>>6] |= 1 << (uint(ord) & 63)
		case TextNode:
			ix.texts = append(ix.texts, o)
		case CommentNode:
			ix.comments = append(ix.comments, o)
		case ProcInstNode:
			ix.procInsts = append(ix.procInsts, o)
		}
	}
	return ix
}

// Doc returns the indexed document.
func (ix *Index) Doc() *Document { return ix.doc }

// Len is the number of nodes of the indexed document: every ord lies
// in [0, Len()).
func (ix *Index) Len() int { return len(ix.parent) }

// ElementsByTag returns the ords of every element with the given tag in
// document order. The returned slice is shared and must not be
// modified.
func (ix *Index) ElementsByTag(tag string) []int32 { return ix.elemsByTag[tag] }

// AttributesByName returns the ords of every attribute node with the
// given name in document order. The returned slice is shared and must
// not be modified.
func (ix *Index) AttributesByName(name string) []int32 { return ix.attrsByName[name] }

// Elements returns the ords of all element nodes in document order
// (shared slice).
func (ix *Index) Elements() []int32 { return ix.elements }

// Texts returns the ords of all text nodes in document order (shared
// slice).
func (ix *Index) Texts() []int32 { return ix.texts }

// Comments returns the ords of all comment nodes in document order
// (shared slice).
func (ix *Index) Comments() []int32 { return ix.comments }

// ProcInsts returns the ords of all processing instructions in
// document order (shared slice).
func (ix *Index) ProcInsts() []int32 { return ix.procInsts }

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

// IsAttr reports whether ord o is an attribute node.
func (ix *Index) IsAttr(o int32) bool { return ix.attrMask[o>>6]&(1<<(uint(o)&63)) != 0 }

// SubtreeEnd returns the first ord after o's subtree: o, its attributes
// and its descendants with theirs are exactly the ords in
// [o, SubtreeEnd(o)). An attribute's subtree is itself. The end is the
// next sibling of the nearest ancestor-or-self that has one (Len() when
// none does), found by a walk up the link arrays.
func (ix *Index) SubtreeEnd(o int32) int32 {
	if ix.IsAttr(o) {
		return o + 1
	}
	for ; o >= 0; o = ix.parent[o] {
		if s := ix.nextSibling[o]; s >= 0 {
			return s
		}
	}
	return int32(len(ix.parent))
}

// OrdsIn returns the members of list, an ord list in document order,
// that lie in [lo, hi): one contiguous slice, found by two binary
// searches. The result aliases list and must not be modified.
func OrdsIn(list []int32, lo, hi int32) []int32 {
	i, _ := slices.BinarySearch(list, lo)
	j, _ := slices.BinarySearch(list[i:], hi)
	return list[i : i+j]
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
