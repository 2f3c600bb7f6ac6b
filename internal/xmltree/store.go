// Document storage. The engines' complexity bounds (Theorems 5.1/6.6 of
// the paper) assume only O(1) access to structure — parent, first-child,
// next-sibling, node kind and label, pre/post order — never a particular
// in-memory representation. Every Document therefore carries one link
// core: the parent, first-child and next-sibling links as flat int32
// arrays indexed by Node.Ord, plus the per-name element and attribute
// ord lists. The document index reads that core whatever the backend,
// and it is filled by one of three routes:
//
//   - a pointer parse copies the scan's link arrays at their exact size
//     and seeds the ord lists from the scan;
//   - a columnar view (Columnar.Document) lends its store's arrays and
//     ord lists;
//   - a tree-built document (NewDocument, Copy) fills them from one walk
//     of the tree (treeLinks, which NewColumnar shares) when its index
//     is first built.
//
// The index and the VM's sparse frontier work on ords over this core;
// the tree engines keep *Node as their node handle, and *Node is the
// public result type (docs/PERFORMANCE.md). The two backends differ in
// what stays resident besides it. For the pointer backend the node graph
// is the document, so it cannot be demoted, only evicted. The columnar
// backend keeps its structural truth in flat arrays (columnar.go) and
// hydrates the node graph from them as a single compact slab, so a
// resident document can be demoted to its arrays (the xpathd registry
// does this under memory pressure) and rehydrated later with identical
// Ord numbering — which is what keeps fingerprint-keyed caches valid
// across the round trip. See docs/STORAGE.md.
package xmltree

import (
	"sync/atomic"
	"unsafe"
)

// Backend names, as threaded through parse options, the xpathd registry
// and the bench suite.
const (
	// BackendPointer is the classic pointer tree: one heap Node per
	// document node, child/attr slices, strings as parsed.
	BackendPointer = "pointer"
	// BackendColumnar is the struct-of-arrays encoding: flat int32
	// parent/first-child/next-sibling/pre/post arrays, interned label
	// and attribute-name tables, and one shared character-data blob.
	BackendColumnar = "columnar"
)

// links are the structural links of a document as ords, indexed by ord
// and -1 when absent. Attribute entries carry parent only.
type links struct {
	parent      []int32
	firstChild  []int32
	nextSibling []int32
}

// newLinks allocates the links of n nodes from one backing.
func newLinks(n int) links {
	words := make([]int32, 3*n)
	return links{
		parent:      words[:n:n],
		firstChild:  words[n : 2*n : 2*n],
		nextSibling: words[2*n : 3*n : 3*n],
	}
}

// clone returns an exactly sized copy of the links.
func (l *links) clone() links {
	c := newLinks(len(l.parent))
	copy(c.parent, l.parent)
	copy(c.firstChild, l.firstChild)
	copy(c.nextSibling, l.nextSibling)
	return c
}

// treeLinks fills l, sized for nodes, from the node graph: the one walk
// that turns a built tree into links, shared by the index of a
// tree-built document and by NewColumnar.
func treeLinks(nodes []*Node, l links) {
	for ord, m := range nodes {
		l.parent[ord], l.firstChild[ord], l.nextSibling[ord] = -1, -1, -1
		if m.Parent != nil {
			l.parent[ord] = m.Parent.Ord
		}
		if m.Type == AttributeNode {
			continue
		}
		if len(m.Children) > 0 {
			l.firstChild[ord] = m.Children[0].Ord
		}
		if s := m.NextSibling(); s != nil {
			l.nextSibling[ord] = s.Ord
		}
	}
}

// treeOrdLists groups the element and attribute ords of a built tree by
// name, in document order, carving the lists at their exact size from
// one backing as the scanner does.
func treeOrdLists(nodes []*Node) (tags, attrs map[string][]int32) {
	ntags, nattrs := make(map[string]int), make(map[string]int)
	total := 0
	for _, m := range nodes {
		switch m.Type {
		case ElementNode:
			ntags[m.Name]++
		case AttributeNode:
			nattrs[m.Name]++
		default:
			continue
		}
		total++
	}
	backing := make([]int32, total)
	carve := func(counts map[string]int) map[string][]int32 {
		lists := make(map[string][]int32, len(counts))
		for name, c := range counts {
			lists[name] = backing[:0:c]
			backing = backing[c:]
		}
		return lists
	}
	tags, attrs = carve(ntags), carve(nattrs)
	for ord, m := range nodes {
		switch m.Type {
		case ElementNode:
			tags[m.Name] = append(tags[m.Name], int32(ord))
		case AttributeNode:
			attrs[m.Name] = append(attrs[m.Name], int32(ord))
		}
	}
	return tags, attrs
}

// core is the link-core slot embedded in Document, sibling of
// indexCache and fpCache. The links and ord lists are written only
// while the document is built or, for a tree-built document, under the
// index lock; the index is their only reader.
type core struct {
	// links are nil on a tree-built document until its index is built.
	links
	// tagOrds and attrOrds are the per-tag element and per-name
	// attribute ord lists, in document order; the index serves them
	// as they are.
	tagOrds  map[string][]int32
	attrOrds map[string][]int32
	// col is the columnar store behind a hydrated view; nil for a
	// pointer document.
	col *Columnar
	// viewBytes is the resident cost of a columnar view's node graph;
	// 0 for a pointer document, whose graph is the store.
	viewBytes int64
	// treeBytes caches the measured footprint of a pointer document's
	// node graph; 0 until first measured.
	treeBytes atomic.Int64
	// elems and attrs count the element and attribute nodes, set by
	// every build route: what the index's size follows from.
	elems, attrs int
}

// resetCore drops the link core and the backend association; called
// from the single build entry point (number), so a re-finalized tree
// reverts to the pointer backend rather than reporting a stale store.
func (d *Document) resetCore() {
	d.links = links{}
	d.tagOrds, d.attrOrds = nil, nil
	d.col = nil
	d.viewBytes = 0
	d.treeBytes.Store(0)
	d.elems, d.attrs = 0, 0
}

// Columnar returns the columnar store behind a hydrated view, or nil
// for a pointer document. The store is what a registry keeps resident
// to demote the view and rehydrate it later.
func (d *Document) Columnar() *Columnar { return d.col }

// Backend names the document's storage backend.
func (d *Document) Backend() string {
	if d.col != nil {
		return BackendColumnar
	}
	return BackendPointer
}

// ValidBackend reports whether name selects a known storage backend
// ("" selects the pointer default).
func ValidBackend(name string) bool {
	switch name {
	case "", BackendPointer, BackendColumnar:
		return true
	}
	return false
}

// Backends lists the selectable storage backends.
func Backends() []string { return []string{BackendPointer, BackendColumnar} }

// StoreSizeBytes is the resident footprint of the document's storage
// encoding at rest — what a registry pays to keep the content resident
// without a hydrated view. For pointer-backed documents this is the
// whole tree; for columnar-backed documents it is the flat arrays and
// tables only.
func (d *Document) StoreSizeBytes() int64 {
	if d.col != nil {
		return d.col.SizeBytes()
	}
	return d.treeSizeBytes()
}

// ResidentBytes is the full resident footprint of this document as
// held: the storage encoding; for a hydrated columnar document, the
// node-handle slab serving evaluation; for a pointer document, the link
// core it owns (a columnar view's links and ord lists belong to its
// store); and the index's ord lists and attribute mask. The index share
// is computed from the node-kind counts, so a document is charged the
// same before and after its index is first built.
func (d *Document) ResidentBytes() int64 {
	size := d.StoreSizeBytes() + d.viewBytes + d.indexBytes()
	if d.col == nil {
		size += int64(len(d.Nodes)) * 3 * 4 // parent, firstChild, nextSibling
	}
	return size
}

// indexBytes is the footprint of the document's index: the Index
// struct, the per-kind ord lists (one backing), the attribute mask and,
// for a pointer document, the per-tag and per-attribute ord lists of
// its link core (a columnar store counts its own). The two name maps'
// entries and the node-test bitsets built on demand are not counted.
func (d *Document) indexBytes() int64 {
	n, elems, attrs := int64(len(d.Nodes)), int64(d.elems), int64(d.attrs)
	ords := n - 1 - attrs // elements, texts, comments, procInsts
	if d.col == nil {
		ords += elems + attrs // elemsByTag, attrsByName
	}
	mask := ((n + 63) >> 6) * 8
	return int64(unsafe.Sizeof(Index{})) + ords*4 + mask
}

// treeSizeBytes measures the node graph once: Node structs, slice
// backings, string payloads (each node's name counted in full, though a
// parsed tree shares one interned copy), label maps and the Nodes
// slice. Racing first callers compute the same value.
func (d *Document) treeSizeBytes() int64 {
	if size := d.treeBytes.Load(); size != 0 {
		return size
	}
	const (
		nodeSize    = int64(unsafe.Sizeof(Node{}))
		ptrSize     = int64(unsafe.Sizeof((*Node)(nil)))
		labelEntry  = 48 // per label: string header and list slot, coarse
		sliceHeader = int64(unsafe.Sizeof([]*Node{}))
	)
	size := sliceHeader + int64(cap(d.Nodes))*ptrSize
	for _, n := range d.Nodes {
		size += nodeSize
		size += int64(cap(n.Children))*ptrSize + int64(cap(n.Attrs))*ptrSize
		size += int64(len(n.Name) + len(n.Data))
	}
	size += int64(cap(d.labels)) * sliceHeader
	for _, ls := range d.labels {
		size += int64(len(ls)) * labelEntry
	}
	d.treeBytes.Store(size)
	return size
}
