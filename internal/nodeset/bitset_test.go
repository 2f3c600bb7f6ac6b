package nodeset

import (
	"fmt"
	"math/rand"
	"testing"

	"xpathcomplexity/internal/axes"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// boundarySizes are the document sizes straddling the uint64 word
// boundaries of the packed representation: a lone conceptual root, one
// word minus one, exactly one word, one word plus one, and two-words
// plus one.
var boundarySizes = []int{1, 2, 63, 64, 65, 129}

// boundaryDoc builds a document with exactly n nodes (the conceptual
// root included), mixing a deepening element spine with flat element
// siblings, text children and attributes so the word-boundary positions
// land on every node type.
func boundaryDoc(t testing.TB, n int) *xmltree.Document {
	t.Helper()
	if n < 1 {
		t.Fatalf("boundaryDoc: n = %d", n)
	}
	if n == 1 {
		return xmltree.NewDocument()
	}
	root := xmltree.Elem("r")
	count := 2 // conceptual root + r
	spine := root
	for i := 0; count < n; i++ {
		switch i % 5 {
		case 0:
			xmltree.WithAttrs(spine, xmltree.Attr(fmt.Sprintf("x%d", i), "v"))
		case 1:
			xmltree.AppendChild(spine, xmltree.Text("t"))
		case 2:
			c := xmltree.Elem("a")
			xmltree.AppendChild(spine, c)
			spine = c
		case 3:
			xmltree.AppendChild(spine, xmltree.Elem("b"))
		default:
			xmltree.AppendChild(spine, xmltree.Elem("a"))
		}
		count++
	}
	d := xmltree.NewDocument(root)
	if len(d.Nodes) != n {
		t.Fatalf("boundaryDoc(%d) built %d nodes", n, len(d.Nodes))
	}
	return d
}

// refSet is the map-based reference implementation the packed Set is
// checked against: membership by Ord, no ordering, no words.
type refSet map[int]bool

func refApplyAxis(d *xmltree.Document, a ast.Axis, s Set) refSet {
	out := refSet{}
	s.ForEachOrd(func(i int) {
		for _, m := range axes.Nodes(a, d.Nodes[i]) {
			out[int(m.Ord)] = true
		}
	})
	return out
}

func refApplyInverse(d *xmltree.Document, a ast.Axis, s Set) refSet {
	out := refSet{}
	members := s.Nodes()
	for _, n := range d.Nodes {
		for _, m := range members {
			if axes.Reachable(a, n, m) {
				out[int(n.Ord)] = true
				break
			}
		}
	}
	return out
}

func checkAgainstRef(t *testing.T, label string, d *xmltree.Document, got Set, want refSet) {
	t.Helper()
	for i := range d.Nodes {
		if got.HasOrd(i) != want[i] {
			t.Fatalf("%s: node #%d (%v): got %v, want %v",
				label, i, d.Nodes[i].Type, got.HasOrd(i), want[i])
		}
	}
	// Document-order iteration must agree with membership and Count.
	n, prev := 0, -1
	got.ForEachOrd(func(i int) {
		if i <= prev {
			t.Fatalf("%s: ForEachOrd out of order: %d after %d", label, i, prev)
		}
		if !want[i] {
			t.Fatalf("%s: ForEachOrd visited non-member %d", label, i)
		}
		prev = i
		n++
	})
	if n != len(want) || got.Count() != len(want) {
		t.Fatalf("%s: visited %d, Count %d, want %d", label, n, got.Count(), len(want))
	}
}

// TestAxisEquivalenceBoundarySizes checks every axis image and inverse
// image against the map-based reference at the word-boundary document
// sizes, through all four implementation paths: unindexed, indexed,
// indexed-owned, and arena-allocated.
func TestAxisEquivalenceBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, size := range boundarySizes {
		d := boundaryDoc(t, size)
		ix := d.Index()
		ar := NewArena()
		for _, axis := range allAxes {
			for trial := 0; trial < 3; trial++ {
				s := randomSet(rng, d)
				if trial == 0 { // cover empty and full sets too
					s = New(d)
				} else if trial == 1 {
					s = Full(d)
				}
				want := refApplyAxis(d, axis, s)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v plain", size, axis), d,
					ApplyAxis(axis, s.Clone()), want)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v indexed", size, axis), d,
					ApplyAxisIndexed(nil, ix, axis, s.Clone()), want)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v owned", size, axis), d,
					ApplyAxisIndexedOwned(ar, ix, axis, ar.Clone(s)), want)

				wantInv := refApplyInverse(d, axis, s)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v inverse", size, axis), d,
					ApplyInverseAxis(axis, s.Clone()), wantInv)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v inverse-indexed", size, axis), d,
					ApplyInverseAxisIndexed(nil, ix, axis, s.Clone()), wantInv)
				checkAgainstRef(t, fmt.Sprintf("size=%d %v inverse-owned", size, axis), d,
					ApplyInverseAxisIndexedOwned(ar, ix, axis, ar.Clone(s)), wantInv)
			}
		}
		ar.Release()
	}
}

// TestAxisEquivalenceLargeDoc spot-checks a 4097-node document (64 words
// plus one bit): the indexed, unindexed and owned paths must agree bit
// for bit on random sets. The O(|D|²) map reference is skipped at this
// size; pairwise agreement of independent implementations stands in.
func TestAxisEquivalenceLargeDoc(t *testing.T) {
	const size = 4097
	d := boundaryDoc(t, size)
	ix := d.Index()
	ar := NewArena()
	defer ar.Release()
	rng := rand.New(rand.NewSource(4097))
	for _, axis := range allAxes {
		s := randomSet(rng, d)
		plain := ApplyAxis(axis, s.Clone())
		indexed := ApplyAxisIndexed(nil, ix, axis, s.Clone())
		owned := ApplyAxisIndexedOwned(ar, ix, axis, ar.Clone(s))
		inv := ApplyInverseAxis(axis, s.Clone())
		invIndexed := ApplyInverseAxisIndexed(nil, ix, axis, s.Clone())
		invOwned := ApplyInverseAxisIndexedOwned(ar, ix, axis, ar.Clone(s))
		for i := range d.Nodes {
			if plain.HasOrd(i) != indexed.HasOrd(i) || plain.HasOrd(i) != owned.HasOrd(i) {
				t.Fatalf("%v: forward paths disagree at #%d: plain=%v indexed=%v owned=%v",
					axis, i, plain.HasOrd(i), indexed.HasOrd(i), owned.HasOrd(i))
			}
			if inv.HasOrd(i) != invIndexed.HasOrd(i) || inv.HasOrd(i) != invOwned.HasOrd(i) {
				t.Fatalf("%v: inverse paths disagree at #%d: plain=%v indexed=%v owned=%v",
					axis, i, inv.HasOrd(i), invIndexed.HasOrd(i), invOwned.HasOrd(i))
			}
		}
	}
}

// TestBitsetPrimitives pins the word-packed core at every boundary size:
// the tail invariant (bits at or beyond the node count stay zero through
// every operation), Count/MaxOrd, and the set algebra against a naive
// model.
func TestBitsetPrimitives(t *testing.T) {
	for _, size := range append(boundarySizes, 4097) {
		d := boundaryDoc(t, size)
		rng := rand.New(rand.NewSource(int64(size)))
		checkTail := func(label string, s Set) {
			t.Helper()
			if len(s.Words) != WordCount(size) {
				t.Fatalf("size=%d %s: %d words, want %d", size, label, len(s.Words), WordCount(size))
			}
			if r := uint(size) % 64; r != 0 {
				if tail := s.Words[len(s.Words)-1] >> r; tail != 0 {
					t.Fatalf("size=%d %s: tail bits set: %#x", size, label, tail)
				}
			}
		}
		full := Full(d)
		checkTail("Full", full)
		if full.Count() != size {
			t.Fatalf("size=%d: Full.Count = %d", size, full.Count())
		}
		if full.MaxOrd() != size-1 {
			t.Fatalf("size=%d: Full.MaxOrd = %d", size, full.MaxOrd())
		}
		if New(d).MaxOrd() != -1 {
			t.Fatalf("size=%d: empty MaxOrd != -1", size)
		}
		notFull := full.Not()
		checkTail("Not(Full)", notFull)
		if !notFull.Empty() {
			t.Fatalf("size=%d: Not(Full) not empty", size)
		}
		a, b := randomSet(rng, d), randomSet(rng, d)
		model := func(f func(x, y bool) bool) refSet {
			out := refSet{}
			for i := 0; i < size; i++ {
				if f(a.HasOrd(i), b.HasOrd(i)) {
					out[i] = true
				}
			}
			return out
		}
		checkAgainstRef(t, fmt.Sprintf("size=%d And", size), d, a.And(b),
			model(func(x, y bool) bool { return x && y }))
		checkAgainstRef(t, fmt.Sprintf("size=%d Or", size), d, a.Or(b),
			model(func(x, y bool) bool { return x || y }))
		checkAgainstRef(t, fmt.Sprintf("size=%d Not", size), d, a.Not(),
			model(func(x, y bool) bool { return !x }))
		// In-place forms on owned clones.
		aw := a.Clone()
		aw.AndWith(b)
		checkAgainstRef(t, fmt.Sprintf("size=%d AndWith", size), d, aw,
			model(func(x, y bool) bool { return x && y }))
		ow := a.Clone()
		ow.OrWith(b)
		checkAgainstRef(t, fmt.Sprintf("size=%d OrWith", size), d, ow,
			model(func(x, y bool) bool { return x || y }))
		nw := a.Clone()
		nw.AndNotWith(b)
		checkAgainstRef(t, fmt.Sprintf("size=%d AndNotWith", size), d, nw,
			model(func(x, y bool) bool { return x && !y }))
		ip := a.Clone()
		ip.NotInPlace()
		checkTail("NotInPlace", ip)
		checkAgainstRef(t, fmt.Sprintf("size=%d NotInPlace", size), d, ip,
			model(func(x, y bool) bool { return !x }))
		// Add/ClearOrd round-trip.
		s := New(d)
		s.AddOrd(size - 1)
		checkTail("AddOrd(last)", s)
		if !s.HasOrd(size-1) || s.Count() != 1 || s.MaxOrd() != size-1 {
			t.Fatalf("size=%d: AddOrd(last) wrong", size)
		}
		s.ClearOrd(size - 1)
		if !s.Empty() {
			t.Fatalf("size=%d: ClearOrd(last) left bits", size)
		}
	}
}

// TestArenaReuseAndZeroing checks the scratch-arena lifecycle: sets
// handed out after a Release must start zeroed even when their words are
// recycled from a dirty evaluation, node buffers must come back empty,
// and the hit/miss statistics must account for every checkout.
func TestArenaReuseAndZeroing(t *testing.T) {
	d := boundaryDoc(t, 129)
	ar := NewArena()
	s := ar.New(d)
	for i := 0; i < 129; i++ {
		s.AddOrd(i) // dirty every word
	}
	f := ar.Full(d)
	cl := ar.Clone(s)
	cl.ClearOrd(5)
	if !s.HasOrd(5) {
		t.Fatal("Clone aliases its source")
	}
	if hits, misses := ar.Stats(); hits+misses != 3 {
		t.Fatalf("stats account for %d checkouts, want 3", hits+misses)
	}
	buf := ar.NodeBuf()
	*buf = append(*buf, d.Nodes...)
	ar.Release()

	// The next arena (very likely the same recycled object) must hand
	// out pristine scratch regardless of what the last evaluation left
	// behind.
	ar2 := NewArena()
	defer ar2.Release()
	if hits, misses := ar2.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("fresh arena stats = %d/%d, want 0/0", hits, misses)
	}
	if got := ar2.New(d); !got.Empty() {
		t.Fatal("recycled words not zeroed")
	}
	if got := ar2.Full(d); got.Count() != 129 {
		t.Fatalf("recycled Full.Count = %d", got.Count())
	}
	if b := ar2.NodeBuf(); len(*b) != 0 {
		t.Fatalf("recycled node buffer has %d residents", len(*b))
	}
	if fn := ar2.FromNodes(d, d.Nodes[3], d.Nodes[7]); fn.Count() != 2 || !fn.HasOrd(3) || !fn.HasOrd(7) {
		t.Fatal("FromNodes wrong")
	}
	_ = f
}

// TestArenaNilFallback: every arena entry point must work on a nil
// *Arena, falling back to plain heap allocation — the contract that lets
// unindexed and test-only call sites skip pooling entirely.
func TestArenaNilFallback(t *testing.T) {
	var ar *Arena
	d := boundaryDoc(t, 65)
	if !ar.New(d).Empty() {
		t.Fatal("nil arena New not empty")
	}
	if ar.Full(d).Count() != 65 {
		t.Fatal("nil arena Full wrong")
	}
	s := ar.FromNodes(d, d.Nodes[64])
	if c := ar.Clone(s); !c.HasOrd(64) || c.Count() != 1 {
		t.Fatal("nil arena Clone wrong")
	}
	if hits, misses := ar.Stats(); hits != 0 || misses != 0 {
		t.Fatal("nil arena stats non-zero")
	}
	ar.Release() // must not panic
	if b := ar.NodeBuf(); b == nil || len(*b) != 0 {
		t.Fatal("nil arena NodeBuf wrong")
	}
}
