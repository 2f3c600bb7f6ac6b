package xmltree

import "sync/atomic"

// fpCache is the cached-fingerprint slot embedded in Document, the
// sibling of indexCache: computed lazily, dropped on renumber.
type fpCache struct {
	fpSet atomic.Bool
	fp    atomic.Uint64
}

// Fingerprint returns a 64-bit content fingerprint of the document: a
// deterministic FNV-1a hash over the full tree in document order — node
// kinds, names, character data, attributes and extra labels (Remark 3.1).
// Two documents with the same content hash to the same fingerprint even
// when parsed or built independently, and any content difference changes
// it (up to 64-bit hash collisions, which the result cache tolerates by
// remapping served nodes by document-order index).
//
// The fingerprint is computed once per document on first use and cached;
// subsequent calls are a single atomic load. Re-finalizing the tree
// through the single build entry point (NewDocument, Copy — anything
// that renumbers) drops the cached value, so a rebuilt document never
// reports a stale fingerprint. Like the index, the cache relies on the
// document being immutable while shared: mutate (AddLabel included),
// renumber, then fingerprint.
//
// The result cache (internal/qcache) keys entries by this value, which
// is what makes "same content ⇒ same answers" — the purity argument
// behind the paper's context-value tables (Proposition 2.7) — operational
// as O(1) repeated evaluation.
func (d *Document) Fingerprint() uint64 {
	if d.fpSet.Load() {
		return d.fp.Load()
	}
	fp := fingerprintDocument(d)
	// Racing first callers compute the same value; publication order
	// (value before flag) keeps readers consistent.
	d.fp.Store(fp)
	d.fpSet.Store(true)
	return fp
}

// invalidateFingerprint drops the cached fingerprint; called from the
// single build entry point (number), alongside index invalidation.
func (d *Document) invalidateFingerprint() {
	d.fpSet.Store(false)
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// The hash steps are pure functions of the running value, so a hot loop
// keeps the value in a register.

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvString hashes s, length-delimited so ("ab","c") and ("a","bc")
// differ.
func fnvString[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return fnvUvarint(h, uint64(len(s)))
}

// fnvUvarint hashes v in its unsigned varint encoding.
func fnvUvarint(h uint64, v uint64) uint64 {
	for v >= 0x80 {
		h = fnvByte(h, byte(v)|0x80)
		v >>= 7
	}
	return fnvByte(h, byte(v))
}

// fnvLeaf hashes a node without labels, attributes or children, as
// fingerprintDocument does.
func fnvLeaf(h uint64, t NodeType, name, data []byte) uint64 {
	h = fnvByte(h, byte(t))
	h = fnvString(h, name)
	h = fnvString(h, data)
	h = fnvByte(h, '(')
	return fnvByte(h, ')')
}

// fingerprintDocument hashes the tree in pre-order: per node its kind,
// name, data, labels and attributes, then its children between '(' and
// ')'. The walk keeps its own stack, so depth costs no Go stack.
func fingerprintDocument(d *Document) uint64 {
	h := uint64(fnvOffset64)
	type frame struct {
		n    *Node
		next int // next child to visit
	}
	var stack []frame
	enter := func(n *Node) {
		h = fnvByte(h, byte(n.Type))
		h = fnvString(h, n.Name)
		h = fnvString(h, n.Data)
		for _, l := range d.labelsOf(n.Ord) {
			h = fnvByte(h, 'L')
			h = fnvString(h, l)
		}
		for _, a := range n.Attrs {
			h = fnvByte(h, 'A')
			h = fnvString(h, a.Name)
			h = fnvString(h, a.Data)
		}
		h = fnvByte(h, '(')
		stack = append(stack, frame{n: n})
	}
	enter(d.Root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.n.Children) {
			top.next++
			enter(top.n.Children[top.next-1])
			continue
		}
		h = fnvByte(h, ')')
		stack = stack[:len(stack)-1]
	}
	return h
}
