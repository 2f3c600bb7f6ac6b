package xmltree

import (
	"strings"
	"unsafe"
)

// flat is the structural core of a document: per-node arrays indexed by
// document order (Node.Ord). The columnar backend stores one; the
// scanner fills one.
type flat struct {
	// kind is the node kind per ord.
	kind []NodeType
	// label indexes the name table per ord (element tag, attribute name,
	// PI target); -1 for root, text and comment nodes.
	label []int32
	// links are the parent, first-child and next-sibling links.
	links
	// pre and post are the pre/post-order numbers (attributes share
	// their owner's interval, as in the pointer tree).
	pre, post []int32
	// dataOff is the n+1 monotone offset table into the character-data
	// blob: the data of ord i is blob[dataOff[i]:dataOff[i+1]].
	dataOff []uint32
}

// newFlat allocates the arrays for n nodes: the six int32 arrays are
// carved from one backing.
func newFlat(n int) flat {
	words := make([]int32, 6*n)
	carve := func(i int) []int32 { return words[i*n : (i+1)*n : (i+1)*n] }
	return flat{
		kind:    make([]NodeType, n),
		label:   carve(0),
		links:   links{parent: carve(1), firstChild: carve(2), nextSibling: carve(3)},
		pre:     carve(4),
		post:    carve(5),
		dataOff: make([]uint32, n+1),
	}
}

// copyFlat returns an exactly sized copy of the arrays.
func (f *flat) copyFlat() flat {
	c := newFlat(len(f.kind))
	copy(c.kind, f.kind)
	copy(c.label, f.label)
	copy(c.parent, f.parent)
	copy(c.firstChild, f.firstChild)
	copy(c.nextSibling, f.nextSibling)
	copy(c.pre, f.pre)
	copy(c.post, f.post)
	copy(c.dataOff, f.dataOff)
	return c
}

// hydrate builds the node-handle view of the arrays: one contiguous
// Node slab, child and attribute slices carved from two shared backings
// (attributes sit at the ords right after their owner, children are
// walked along the sibling links), name and data strings aliasing names
// and blob. The document's node-kind counts are set on the way.
func (f *flat) hydrate(blob string, names []string) *Document {
	kind, label, parent := f.kind, f.label, f.parent
	firstChild, nextSibling := f.firstChild, f.nextSibling
	pre, post, dataOff := f.pre, f.post, f.dataOff
	n := len(kind)
	label, parent, firstChild, pre, post = label[:n], parent[:n], firstChild[:n], pre[:n], post[:n]
	dataOff = dataOff[:n+1]
	var nelem, nattr int
	for _, k := range kind {
		switch k {
		case ElementNode:
			nelem++
		case AttributeNode:
			nattr++
		}
	}
	slab := make([]Node, n)
	nodes := make([]*Node, n)
	childBacking := make([]*Node, n-1-nattr) // every node but the root and the attributes is a child
	attrBacking := make([]*Node, nattr)
	d := &Document{Root: &slab[0], Nodes: nodes}
	d.elems, d.attrs = nelem, nattr
	ci, ai := 0, 0
	for ord := range slab {
		m := &slab[ord]
		nodes[ord] = m
		k := kind[ord]
		m.Type = k
		if id := label[ord]; id >= 0 {
			m.Name = names[id]
		}
		if lo, hi := dataOff[ord], dataOff[ord+1]; lo < hi {
			m.Data = blob[lo:hi]
		}
		m.Pre = pre[ord]
		m.Post = post[ord]
		m.Ord = int32(ord)
		m.doc = d
		if p := parent[ord]; p >= 0 {
			m.Parent = &slab[p]
		}
		if k == AttributeNode {
			continue
		}
		if a := ord + 1; a < n && kind[a] == AttributeNode {
			start := ai
			for ; a < n && kind[a] == AttributeNode; a++ {
				slab[a].SiblingIdx = int32(ai - start)
				attrBacking[ai] = &slab[a]
				ai++
			}
			m.Attrs = attrBacking[start:ai:ai]
		}
		if c := firstChild[ord]; c >= 0 {
			start := ci
			for ; c >= 0; c = nextSibling[c] {
				slab[c].SiblingIdx = int32(ci - start)
				childBacking[ci] = &slab[c]
				ci++
			}
			m.Children = childBacking[start:ci:ci]
		}
	}
	return d
}

// ordLists groups the element and attribute ords of the arrays by name,
// in document order: the per-tag and per-attribute candidate lists of
// the link core, carved from one shared backing.
func (f *flat) ordLists(names []string) (tags, attrs map[string][]int32) {
	// Slot id counts the elements named id, slot len(names)+id the
	// attributes.
	m := len(names)
	count := make([]int, 2*m)
	total, ntags, nattrs := 0, 0, 0
	for ord, k := range f.kind {
		slot := int(f.label[ord])
		switch k {
		case ElementNode:
		case AttributeNode:
			slot += m
		default:
			continue
		}
		if count[slot] == 0 {
			if slot < m {
				ntags++
			} else {
				nattrs++
			}
		}
		count[slot]++
		total++
	}
	lists := make([][]int32, 2*m)
	backing := make([]int32, total)
	off := 0
	for slot, c := range count {
		lists[slot] = backing[off : off : off+c]
		off += c
	}
	for ord, k := range f.kind {
		slot := int(f.label[ord])
		switch k {
		case ElementNode:
		case AttributeNode:
			slot += m
		default:
			continue
		}
		lists[slot] = append(lists[slot], int32(ord))
	}
	tags = make(map[string][]int32, ntags)
	attrs = make(map[string][]int32, nattrs)
	for slot, l := range lists {
		switch {
		case len(l) == 0:
		case slot < m:
			tags[names[slot]] = l
		default:
			attrs[names[slot-m]] = l
		}
	}
	return tags, attrs
}

// Columnar is the struct-of-arrays document backend: the structural
// truth of one document held as flat arrays indexed by document order
// (Node.Ord), with all names interned in one table and all character
// data concatenated in one blob. Per node it costs ~29 bytes of arrays
// (kind, label id, parent, first-child, next-sibling, pre, post, data
// offset) against the pointer tree's per-node struct, slice backings and
// un-interned strings — the cache-friendly flat encoding the ROADMAP
// names as the unlock for registry-resident document sets, and the shape
// the SXSI line of work (PAPERS.md) shows matches the engines' access
// patterns.
//
// A Columnar is immutable once built and safe to share. It serves
// evaluation by hydrating a node-handle view (Document): one contiguous
// Node slab wired from the arrays, strings aliasing the interned tables,
// child/attr slices carved from two shared backings. Hydration is
// deterministic — same store, same Ord numbering, same fingerprint — so
// a view can be dropped under memory pressure and rebuilt later without
// invalidating fingerprint-keyed caches.
type Columnar struct {
	// flat holds the per-ord arrays: kind, label id, parent,
	// first-child, next-sibling, pre, post and data offset.
	flat
	// blob is every text, attribute-value, comment and PI payload,
	// concatenated in document order.
	blob string
	// names is the interned name table label indexes into.
	names []string
	// tagOrds and attrOrds are the per-tag element and per-name
	// attribute candidate lists, in document order.
	tagOrds  map[string][]int32
	attrOrds map[string][]int32
	// extraLabels carries the sparse Remark 3.1 labels (reduction-built
	// documents only; empty for parsed XML).
	extraLabels map[int32][]string
	// fp is the content fingerprint, computed from the source tree at
	// conversion; every hydrated view is primed with it.
	fp uint64
}

// NewColumnar converts a finalized document to the columnar encoding:
// one pass over its node list fills the per-node arrays, and the links
// come from treeLinks, the walk a tree-built document's index uses. The
// source document is not retained: a caller that converts a freshly
// parsed tree and keeps only the hydrated view lets the parse-time
// pointer tree go to the collector.
func NewColumnar(d *Document) *Columnar {
	n := len(d.Nodes)
	checkOrdWidth(n)
	c := &Columnar{flat: newFlat(n), fp: d.Fingerprint()}
	intern := make(map[string]int32)
	internName := func(s string) int32 {
		if id, ok := intern[s]; ok {
			return id
		}
		id := int32(len(c.names))
		c.names = append(c.names, s)
		intern[s] = id
		return id
	}
	var blob strings.Builder
	for ord, m := range d.Nodes {
		c.kind[ord] = m.Type
		c.pre[ord] = m.Pre
		c.post[ord] = m.Post
		c.label[ord] = -1
		if m.Name != "" || m.Type == ElementNode || m.Type == AttributeNode {
			c.label[ord] = internName(m.Name)
		}
		c.dataOff[ord] = uint32(blob.Len())
		blob.WriteString(m.Data)
	}
	c.dataOff[n] = uint32(blob.Len())
	c.blob = blob.String()
	// Label lists are never written in place, so the store shares them.
	for ord, ls := range d.labels {
		if len(ls) > 0 {
			if c.extraLabels == nil {
				c.extraLabels = make(map[int32][]string)
			}
			c.extraLabels[int32(ord)] = ls
		}
	}
	treeLinks(d.Nodes, c.links)
	c.tagOrds, c.attrOrds = c.ordLists(c.names)
	return c
}

// SizeBytes is the exact array, table and blob footprint of the
// encoding at rest (no hydrated view included).
func (c *Columnar) SizeBytes() int64 {
	const (
		sliceHeader = int64(unsafe.Sizeof([]int32{}))
		strHeader   = int64(unsafe.Sizeof(""))
		mapEntry    = 48 // bucket share per key, coarse
	)
	n := int64(len(c.kind))
	size := int64(unsafe.Sizeof(*c))
	size += n * 1              // kind
	size += n * 4 * 6          // label, parent, firstChild, nextSibling, pre, post
	size += (n + 1) * 4        // dataOff
	size += int64(len(c.blob)) // blob payload
	size += sliceHeader * 8    // the eight array headers
	size += strHeader * int64(len(c.names))
	for _, s := range c.names {
		size += int64(len(s))
	}
	for tag, ords := range c.tagOrds {
		size += mapEntry + int64(len(tag)) + sliceHeader + int64(cap(ords))*4
	}
	for name, ords := range c.attrOrds {
		size += mapEntry + int64(len(name)) + sliceHeader + int64(cap(ords))*4
	}
	for _, ls := range c.extraLabels {
		size += mapEntry
		for _, l := range ls {
			size += strHeader + int64(len(l))
		}
	}
	return size
}

// Document hydrates a node-handle view of the store — one contiguous Node slab, child and attribute slices carved
// from two shared backing arrays, name and data strings aliasing the
// interned tables (no character copied). Numbering (Ord, Pre, Post,
// SiblingIdx) is read straight from the arrays, so every hydration of
// the same store is content- and order-identical: node sets cached by
// (fingerprint, ord) remap cleanly onto any view of the store.
func (c *Columnar) Document() *Document {
	d := c.hydrate(c.blob, c.names)
	// The view gets its own table, so a label added to it later does
	// not reach the store.
	for ord, ls := range c.extraLabels {
		d.setLabels(int(ord), ls)
	}
	// Prime the fingerprint from the store and lend the view the
	// store's link core: the view never recomputes what the encoding
	// already knows.
	d.fp.Store(c.fp)
	d.fpSet.Store(true)
	d.links = c.links
	d.tagOrds, d.attrOrds = c.tagOrds, c.attrOrds
	d.col = c
	d.viewBytes = c.viewBytes(len(c.kind))
	return d
}

// viewBytes is the resident cost of one hydrated view of n nodes over
// this store: the Node slab, the two carved backings (every node but
// the root fills one child or attribute slot) and the Nodes pointer
// slice. Strings alias the store's interned tables and are not charged
// again.
func (c *Columnar) viewBytes(n int) int64 {
	const (
		nodeSize = int64(unsafe.Sizeof(Node{}))
		ptrSize  = int64(unsafe.Sizeof((*Node)(nil)))
	)
	size := int64(n)*nodeSize + int64(n-1+n)*ptrSize
	size += int64(len(c.extraLabels)) * 48
	return size
}

// Compact returns a columnar-backed equivalent of the document: the
// document itself when it is already columnar-backed, otherwise the
// hydrated view of a fresh conversion. Content, numbering and
// fingerprint are identical; only the storage encoding changes.
func Compact(d *Document) *Document {
	if d.col != nil {
		return d
	}
	return NewColumnar(d).Document()
}
