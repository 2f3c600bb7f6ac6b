// Document storage backends. The engines' complexity bounds (Theorems
// 5.1/6.6 of the paper) assume only O(1) access to structure — parent,
// first-child, next-sibling, node kind and label, pre/post order — never
// a particular in-memory representation. DocStore captures exactly that
// access surface, which makes the representation a swappable layer: the
// classic pointer tree (this package's Node graph) and the columnar
// struct-of-arrays encoding (columnar.go) both implement it, and a
// grammar-compressed or succinct backend can slot in behind the same
// interface (see docs/STORAGE.md and the SXSI line of work in PAPERS.md).
//
// The evaluation engines keep *Node as their node handle: it is the
// public result type and the zero-indirection representation the hot
// loops were tuned on (docs/PERFORMANCE.md). A backend therefore has two
// jobs: hold the document's structural truth in its own encoding, and
// materialize ("hydrate") a *Document node-handle view on demand. For
// the pointer backend the view is the truth, so hydration is free and
// demotion is impossible; for the columnar backend the view is a single
// compact slab rebuilt from the arrays, so a resident document can be
// demoted to its store-only form (the xpathd registry does this under
// memory pressure) and rehydrated later with identical Ord numbering —
// which is what keeps fingerprint-keyed caches valid across the round
// trip.
package xmltree

import (
	"sort"
	"sync"
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

// DocStore is the pluggable storage encoding of one finalized document.
// All node arguments and results are document-order indices (Node.Ord);
// -1 means "no such node". Implementations are immutable once built and
// safe for concurrent use.
//
// The method set is the audited minimal surface the evaluators consume
// (via the Index and the *Node view): kind/label/data lookup, the three
// structural links, pre/post interval order, per-tag and per-attribute
// candidate lists, contiguous subtree intervals, and the Remark 3.1
// extra labels. Everything else the engines do is derived from these.
type DocStore interface {
	// Backend names the encoding (BackendPointer, BackendColumnar, ...).
	Backend() string
	// NumNodes is the document size |D| (every node kind included).
	NumNodes() int

	// Kind returns the node kind at ord.
	Kind(ord int) NodeType
	// Name returns the element tag, attribute name or PI target at ord
	// ("" for root, text and comment nodes).
	Name(ord int) string
	// Data returns the character data at ord (text content, attribute
	// value, comment or PI payload; "" for elements and the root).
	Data(ord int) string
	// Labels returns the Remark 3.1 extra labels at ord, sorted (nil for
	// the common unlabeled case).
	Labels(ord int) []string

	// ParentOrd, FirstChildOrd and NextSiblingOrd return the structural
	// links as ords, or -1. Attribute nodes have a parent (the owning
	// element) but no child or sibling links.
	ParentOrd(ord int) int
	FirstChildOrd(ord int) int
	NextSiblingOrd(ord int) int
	// Pre and Post are the pre/post-order numbers over the child tree;
	// attributes share their owner's interval.
	Pre(ord int) int
	Post(ord int) int

	// TagOrds returns the ords of every element with the given tag, in
	// document order. The slice is shared and must not be modified.
	TagOrds(tag string) []int32
	// AttrOrds returns the ords of every attribute node with the given
	// name, in document order. Shared; read-only.
	AttrOrds(name string) []int32
	// SubtreeOrdSpan returns the half-open ord interval [lo, hi) covering
	// the node, its attributes and its whole subtree — the contiguity
	// that makes interval slicing (SubtreeSlice) a pair of binary
	// searches. For an attribute node the span is the node alone.
	SubtreeOrdSpan(ord int) (lo, hi int)

	// Fingerprint is the 64-bit content fingerprint — identical across
	// backends for identical content, so result caches and the registry
	// dedup by content regardless of encoding.
	Fingerprint() uint64
	// SizeBytes is the resident footprint of this encoding alone (the
	// store at rest, without any hydrated node-handle view).
	SizeBytes() int64
	// Document returns a node-handle view of the store for evaluation.
	// The pointer backend returns its one true tree; the columnar
	// backend hydrates a fresh compact slab with deterministic,
	// content-identical Ord numbering on every call.
	Document() *Document
}

// storeCache is the backend slot embedded in Document, sibling of
// indexCache and fpCache: the store behind a hydrated view, or the
// lazily built pointer adapter for plain trees.
type storeCache struct {
	storeMu sync.Mutex
	storeV  DocStore
	// viewBytes is the resident cost of the node-handle layer when it is
	// separate from the store (columnar hydration); 0 for the pointer
	// backend, whose store bytes are the view.
	viewBytes int64
}

// Store returns the document's storage backend. Documents built through
// NewDocument, Parse or Copy are pointer-backed; documents hydrated from
// a Columnar store report that store.
func (d *Document) Store() DocStore {
	d.storeMu.Lock()
	defer d.storeMu.Unlock()
	if d.storeV == nil {
		d.storeV = &pointerStore{doc: d}
	}
	return d.storeV
}

// setStore installs the backend behind a freshly hydrated view.
func (d *Document) setStore(s DocStore, viewBytes int64) {
	d.storeMu.Lock()
	d.storeV = s
	d.viewBytes = viewBytes
	d.storeMu.Unlock()
}

// invalidateStore drops the backend association; called from the single
// build entry point (number), so a re-finalized tree reverts to the
// pointer backend rather than reporting a stale store.
func (d *Document) invalidateStore() {
	d.storeMu.Lock()
	d.storeV = nil
	d.viewBytes = 0
	d.storeMu.Unlock()
}

// Backend names the document's storage backend.
func (d *Document) Backend() string { return d.Store().Backend() }

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
func (d *Document) StoreSizeBytes() int64 { return d.Store().SizeBytes() }

// ResidentBytes is the full resident footprint of this document as
// held: the storage encoding plus, for hydrated columnar documents, the
// node-handle slab serving evaluation. Pointer-backed documents report
// their tree once (store and view are the same memory).
func (d *Document) ResidentBytes() int64 {
	s := d.Store() // ensures storeV, takes and releases the lock
	d.storeMu.Lock()
	vb := d.viewBytes
	d.storeMu.Unlock()
	return s.SizeBytes() + vb
}

// pointerStore adapts a pointer-tree Document to the DocStore interface:
// every primitive delegates to the Node graph the engines already walk.
// It is the identity backend — Document() returns the adapted tree — so
// it cannot be demoted, only evicted.
type pointerStore struct {
	doc *Document

	once sync.Once
	// tagOrds and attrOrds are filled by build, unless the parser
	// seeded them from its scan.
	tagOrds  map[string][]int32
	attrOrds map[string][]int32
	size     int64
}

func (p *pointerStore) Backend() string { return BackendPointer }
func (p *pointerStore) NumNodes() int   { return len(p.doc.Nodes) }

func (p *pointerStore) Kind(ord int) NodeType { return p.doc.Nodes[ord].Type }
func (p *pointerStore) Name(ord int) string   { return p.doc.Nodes[ord].Name }
func (p *pointerStore) Data(ord int) string   { return p.doc.Nodes[ord].Data }
func (p *pointerStore) Labels(ord int) []string {
	return p.doc.Nodes[ord].Labels()
}

func (p *pointerStore) ParentOrd(ord int) int {
	if par := p.doc.Nodes[ord].Parent; par != nil {
		return par.Ord
	}
	return -1
}

func (p *pointerStore) FirstChildOrd(ord int) int {
	n := p.doc.Nodes[ord]
	if n.Type != AttributeNode && len(n.Children) > 0 {
		return n.Children[0].Ord
	}
	return -1
}

func (p *pointerStore) NextSiblingOrd(ord int) int {
	if s := p.doc.Nodes[ord].NextSibling(); s != nil {
		return s.Ord
	}
	return -1
}

func (p *pointerStore) Pre(ord int) int  { return p.doc.Nodes[ord].Pre }
func (p *pointerStore) Post(ord int) int { return p.doc.Nodes[ord].Post }

func (p *pointerStore) TagOrds(tag string) []int32 {
	p.build()
	return p.tagOrds[tag]
}

func (p *pointerStore) AttrOrds(name string) []int32 {
	p.build()
	return p.attrOrds[name]
}

func (p *pointerStore) SubtreeOrdSpan(ord int) (int, int) {
	return subtreeOrdSpan(p, ord)
}

func (p *pointerStore) Fingerprint() uint64 { return p.doc.Fingerprint() }

func (p *pointerStore) SizeBytes() int64 {
	p.build()
	return p.size
}

func (p *pointerStore) Document() *Document { return p.doc }

// build fills the derived tables once: the per-tag/per-attribute ord
// lists (unless seeded) and the measured resident size of the pointer
// representation. The size walk counts what the tree holds — Node
// structs, slice backings, string payloads (each node's name counted in
// full, though a parsed tree shares one interned copy), label maps and
// the Nodes slice — replacing the flat per-node guess the registry used
// to make.
func (p *pointerStore) build() {
	p.once.Do(func() {
		const (
			nodeSize    = int64(unsafe.Sizeof(Node{}))
			ptrSize     = int64(unsafe.Sizeof((*Node)(nil)))
			labelEntry  = 48 // map bucket share + string header, coarse
			sliceHeader = int64(unsafe.Sizeof([]*Node{}))
		)
		seeded := p.tagOrds != nil
		if !seeded {
			p.tagOrds = make(map[string][]int32)
			p.attrOrds = make(map[string][]int32)
		}
		size := sliceHeader + int64(cap(p.doc.Nodes))*ptrSize
		for _, n := range p.doc.Nodes {
			if !seeded {
				switch n.Type {
				case ElementNode:
					p.tagOrds[n.Name] = append(p.tagOrds[n.Name], int32(n.Ord))
				case AttributeNode:
					p.attrOrds[n.Name] = append(p.attrOrds[n.Name], int32(n.Ord))
				}
			}
			size += nodeSize
			size += int64(cap(n.Children))*ptrSize + int64(cap(n.Attrs))*ptrSize
			size += int64(len(n.Name) + len(n.Data))
			size += int64(len(n.labels)) * labelEntry
		}
		p.size = size
	})
}

// ordLists returns the store's per-tag and per-attribute ord lists.
func (p *pointerStore) ordLists() (tags, attrs map[string][]int32) {
	p.build()
	return p.tagOrds, p.attrOrds
}

// subtreeOrdSpan computes the contiguous ord interval of a node's
// subtree (attributes included) from the structural links alone, so any
// backend gets it for free: the span ends where the next sibling —
// walking up through ancestors when the node is a last child — begins.
func subtreeOrdSpan(s DocStore, ord int) (int, int) {
	if s.Kind(ord) == AttributeNode {
		return ord, ord + 1
	}
	for j := ord; j >= 0; j = s.ParentOrd(j) {
		if ns := s.NextSiblingOrd(j); ns >= 0 {
			return ord, ns
		}
	}
	return ord, s.NumNodes()
}

// sortedKeys returns a map's keys in sorted order (shared by the
// backends' deterministic walks).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
