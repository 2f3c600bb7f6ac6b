package xmltree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

const storeTestXML = `<library kind="public">
  <book id="b1" lang="en"><title>First</title><author>A. One</author></book>
  <book id="b2"><title>Second</title><!--review pending--></book>
  <shelf><?mark pos="3"?><book id="b3"><title>Third</title></book></shelf>
</library>`

func storeTestDocs(t *testing.T) map[string]*Document {
	t.Helper()
	parsed, err := ParseString(storeTestXML)
	if err != nil {
		t.Fatal(err)
	}
	labeled := NewDocument(
		Elem("r",
			Elem("a", Text("x")),
			WithAttrs(Elem("a"), Attr("k", "v")),
		),
	)
	labeled.Nodes[2].AddLabel("S1")
	labeled.Nodes[2].AddLabel("S0")
	random := RandomDocument(rand.New(rand.NewSource(11)), GenConfig{
		Nodes: 500, MaxFanout: 5, Tags: []string{"a", "b", "c"},
		TextProb: 0.3, AttrProb: 0.3,
	})
	return map[string]*Document{"parsed": parsed, "labeled": labeled, "random": random}
}

// diffIndexes describes the first difference between two indexes of
// the same content, or returns "": the link arrays and attribute mask
// must be equal, and the per-tag, per-attribute and per-kind lists
// must hold the same nodes by Ord.
func diffIndexes(got, want *Index) string {
	for _, a := range []struct {
		name      string
		got, want []int32
	}{
		{"parent", got.ParentOrds(), want.ParentOrds()},
		{"firstChild", got.FirstChildOrds(), want.FirstChildOrds()},
		{"nextSibling", got.NextSiblingOrds(), want.NextSiblingOrds()},
	} {
		if !slices.Equal(a.got, a.want) {
			return fmt.Sprintf("%s links %v, want %v", a.name, a.got, a.want)
		}
	}
	if !slices.Equal(got.AttrMask(), want.AttrMask()) {
		return fmt.Sprintf("attribute mask %x, want %x", got.AttrMask(), want.AttrMask())
	}
	lists := func(what string, got, want map[string][]int32) string {
		if len(got) != len(want) {
			return fmt.Sprintf("%d %s names, want %d", len(got), what, len(want))
		}
		for name, w := range want {
			if g := got[name]; !slices.Equal(g, w) {
				return fmt.Sprintf("%s %q: ords %v, want %v", what, name, g, w)
			}
		}
		return ""
	}
	if msg := lists("tag", got.elemsByTag, want.elemsByTag); msg != "" {
		return msg
	}
	if msg := lists("attribute", got.attrsByName, want.attrsByName); msg != "" {
		return msg
	}
	return lists("kind", map[string][]int32{
		"element": got.Elements(), "text": got.Texts(), "comment": got.Comments(),
		"processing-instruction": got.ProcInsts(),
	}, map[string][]int32{
		"element": want.Elements(), "text": want.Texts(), "comment": want.Comments(),
		"processing-instruction": want.ProcInsts(),
	})
}

// checkCoreAgainstTree asserts a document's node content, its Index
// link arrays and its per-tag and per-attribute lists against the
// pointer graph of view (whose Nodes are the ground truth for ords).
func checkCoreAgainstTree(t *testing.T, d, view *Document) {
	t.Helper()
	if len(d.Nodes) != len(view.Nodes) {
		t.Fatalf("%d nodes, want %d", len(d.Nodes), len(view.Nodes))
	}
	ix := d.Index()
	parent, firstChild, nextSibling := ix.ParentOrds(), ix.FirstChildOrds(), ix.NextSiblingOrds()
	if len(parent) != len(view.Nodes) || len(firstChild) != len(view.Nodes) || len(nextSibling) != len(view.Nodes) {
		t.Fatalf("link arrays sized %d/%d/%d, want %d",
			len(parent), len(firstChild), len(nextSibling), len(view.Nodes))
	}
	for ord, n := range view.Nodes {
		m := d.Nodes[ord]
		if int(m.Ord) != ord || m.Type != n.Type || m.Name != n.Name || m.Data != n.Data || m.Pre != n.Pre || m.Post != n.Post {
			t.Fatalf("ord %d: {%d %v %q %q pre=%d post=%d}, want {%d %v %q %q pre=%d post=%d}",
				ord, m.Ord, m.Type, m.Name, m.Data, m.Pre, m.Post, n.Ord, n.Type, n.Name, n.Data, n.Pre, n.Post)
		}
		if got, want := m.Labels(), n.Labels(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("ord %d: Labels = %v, want %v", ord, got, want)
		}
		wantParent := -1
		if n.Parent != nil {
			wantParent = int(n.Parent.Ord)
		}
		if got := int(parent[ord]); got != wantParent {
			t.Fatalf("ord %d: parent = %d, want %d", ord, got, wantParent)
		}
		wantFC := -1
		if n.Type != AttributeNode && len(n.Children) > 0 {
			wantFC = int(n.Children[0].Ord)
		}
		if got := int(firstChild[ord]); got != wantFC {
			t.Fatalf("ord %d: first child = %d, want %d", ord, got, wantFC)
		}
		wantNS := -1
		if sib := n.NextSibling(); sib != nil {
			wantNS = int(sib.Ord)
		}
		if got := int(nextSibling[ord]); got != wantNS {
			t.Fatalf("ord %d: next sibling = %d, want %d", ord, got, wantNS)
		}
	}
	// Per-tag and per-attribute lists match a document-order scan.
	tags := map[string][]int32{}
	attrs := map[string][]int32{}
	for ord, n := range view.Nodes {
		switch n.Type {
		case ElementNode:
			tags[n.Name] = append(tags[n.Name], int32(ord))
		case AttributeNode:
			attrs[n.Name] = append(attrs[n.Name], int32(ord))
		}
	}
	for tag, want := range tags {
		if got := ix.ElementsByTag(tag); !slices.Equal(got, want) {
			t.Fatalf("ElementsByTag(%q) = %v, want %v", tag, got, want)
		}
	}
	for name, want := range attrs {
		if got := ix.AttributesByName(name); !slices.Equal(got, want) {
			t.Fatalf("AttributesByName(%q) = %v, want %v", name, got, want)
		}
	}
	if got := ix.ElementsByTag("no-such-tag"); len(got) != 0 {
		t.Fatalf("ElementsByTag(no-such-tag) = %v", got)
	}
	if got := ix.AttributesByName("no-such-attr"); len(got) != 0 {
		t.Fatalf("AttributesByName(no-such-attr) = %v", got)
	}
}

// A pointer document's link core — copied from the scan for a parse,
// walked from the tree otherwise — mirrors its own node graph.
func TestPointerStorePrimitives(t *testing.T) {
	for name, d := range storeTestDocs(t) {
		t.Run(name, func(t *testing.T) {
			if d.Backend() != BackendPointer {
				t.Fatalf("Backend = %q", d.Backend())
			}
			if d.Columnar() != nil {
				t.Fatal("pointer document reports a columnar store")
			}
			checkCoreAgainstTree(t, d, d)
		})
	}
}

// A columnar view's link core, lent by its store, agrees with both the
// source tree and the view's own hydrated graph.
func TestColumnarStorePrimitives(t *testing.T) {
	for name, d := range storeTestDocs(t) {
		t.Run(name, func(t *testing.T) {
			c := NewColumnar(d)
			h := c.Document()
			if h.Backend() != BackendColumnar {
				t.Fatalf("Backend = %q", h.Backend())
			}
			if h.Columnar() != c {
				t.Fatal("hydrated view does not report its store")
			}
			if h.Fingerprint() != d.Fingerprint() {
				t.Fatal("columnar view fingerprint mismatch")
			}
			checkCoreAgainstTree(t, h, d)
			checkCoreAgainstTree(t, h, h)
		})
	}
}

// Hydration must be a faithful, deterministic reconstruction: same
// numbering, same content, same fingerprint, every time.
func TestColumnarHydrationFaithful(t *testing.T) {
	for name, d := range storeTestDocs(t) {
		t.Run(name, func(t *testing.T) {
			c := NewColumnar(d)
			h1, h2 := c.Document(), c.Document()
			for _, h := range []*Document{h1, h2} {
				if len(h.Nodes) != len(d.Nodes) {
					t.Fatalf("hydrated %d nodes, want %d", len(h.Nodes), len(d.Nodes))
				}
				if h.Backend() != BackendColumnar {
					t.Fatalf("hydrated backend = %q", h.Backend())
				}
				if h.Fingerprint() != d.Fingerprint() {
					t.Fatalf("hydrated fingerprint %x, want %x", h.Fingerprint(), d.Fingerprint())
				}
				for ord, n := range h.Nodes {
					m := d.Nodes[ord]
					if int(n.Ord) != ord || n.Type != m.Type || n.Name != m.Name || n.Data != m.Data ||
						n.Pre != m.Pre || n.Post != m.Post || n.SiblingIdx != m.SiblingIdx {
						t.Fatalf("ord %d: hydrated {%v %q %q pre=%d post=%d sib=%d}, want {%v %q %q pre=%d post=%d sib=%d}",
							ord, n.Type, n.Name, n.Data, n.Pre, n.Post, n.SiblingIdx,
							m.Type, m.Name, m.Data, m.Pre, m.Post, m.SiblingIdx)
					}
					if len(n.Children) != len(m.Children) || len(n.Attrs) != len(m.Attrs) {
						t.Fatalf("ord %d: arity mismatch", ord)
					}
					for i := range n.Children {
						if n.Children[i].Ord != m.Children[i].Ord {
							t.Fatalf("ord %d child %d: ord %d, want %d", ord, i, n.Children[i].Ord, m.Children[i].Ord)
						}
					}
					for i := range n.Attrs {
						if n.Attrs[i].Ord != m.Attrs[i].Ord {
							t.Fatalf("ord %d attr %d: ord %d, want %d", ord, i, n.Attrs[i].Ord, m.Attrs[i].Ord)
						}
					}
					if n.Document() != h {
						t.Fatalf("ord %d: node does not point at its view document", ord)
					}
				}
			}
		})
	}
}

func TestFingerprintIdenticalAcrossBackends(t *testing.T) {
	p1, err := ParseString(storeTestXML)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ParseWith(strings.NewReader(storeTestXML), ParseConfig{Backend: BackendColumnar})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != c1.Fingerprint() {
		t.Fatalf("backends disagree on fingerprint: pointer %x, columnar %x",
			p1.Fingerprint(), c1.Fingerprint())
	}
	if p1.Backend() != BackendPointer || c1.Backend() != BackendColumnar {
		t.Fatalf("backends = %q / %q", p1.Backend(), c1.Backend())
	}
}

func TestParseWithBackendSelection(t *testing.T) {
	if _, err := ParseWith(strings.NewReader("<r/>"), ParseConfig{Backend: "bogus"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, b := range []string{"", BackendPointer, BackendColumnar} {
		d, err := ParseWith(strings.NewReader("<r><a/></r>"), ParseConfig{Backend: b})
		if err != nil {
			t.Fatalf("backend %q: %v", b, err)
		}
		want := b
		if want == "" {
			want = BackendPointer
		}
		if d.Backend() != want {
			t.Fatalf("backend %q: document reports %q", b, d.Backend())
		}
	}
	if !ValidBackend("") || !ValidBackend(BackendPointer) || !ValidBackend(BackendColumnar) {
		t.Fatal("ValidBackend rejects a known backend")
	}
	if ValidBackend("bogus") {
		t.Fatal("ValidBackend accepts bogus")
	}
	if got := Backends(); len(got) != 2 || got[0] != BackendPointer || got[1] != BackendColumnar {
		t.Fatalf("Backends() = %v", got)
	}
}

// Compact is idempotent and renumbering (the single mutation entry
// point) reverts a document to the pointer backend so a stale store is
// never served.
func TestCompactAndInvalidation(t *testing.T) {
	d, err := ParseString(storeTestXML)
	if err != nil {
		t.Fatal(err)
	}
	cd := Compact(d)
	if cd == d {
		t.Fatal("Compact returned the pointer-backed original")
	}
	if Compact(cd) != cd {
		t.Fatal("Compact of a columnar document must be the identity")
	}
	// Copy renumbers through the single build entry point: the copy is
	// an independent pointer-backed tree.
	cp := cd.Copy()
	if cp.Backend() != BackendPointer {
		t.Fatalf("copy backend = %q, want %q", cp.Backend(), BackendPointer)
	}
	if cp.Fingerprint() != cd.Fingerprint() {
		t.Fatal("copy changed the fingerprint")
	}
}

// The columnar encoding must be dramatically smaller than the pointer
// tree at rest, and the documented two-tier accounting must hold:
// ResidentBytes = store + view for columnar, = tree alone for pointer.
// The exact byte counts are pinned: the registry charges and demotes by
// them, and /v1/docs reports them.
func TestStoreSizeAccounting(t *testing.T) {
	d := RandomDocument(rand.New(rand.NewSource(7)), GenConfig{
		Nodes: 4000, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"},
		TextProb: 0.3, AttrProb: 0.25,
	})
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned byte counts are those of a 64-bit platform")
	}
	pd, err := ParseString(d.XMLString())
	if err != nil {
		t.Fatal(err)
	}
	cpd, err := ParseWith(strings.NewReader(d.XMLString()), ParseConfig{Backend: BackendColumnar})
	if err != nil {
		t.Fatal(err)
	}
	// The document has 6 118 nodes, 4 933 of them elements and
	// attributes. A pointer document's store is its node graph (the
	// tree figure); a columnar document's resident figure adds the
	// hydrated view (832 040 B). ResidentBytes adds the index's per-kind
	// ord lists and attribute mask (21 752 B with the struct) and, for a
	// pointer document, the per-name ord lists of its link core
	// (4 933 × 4 = 19 732 B; a columnar store counts its own) and its
	// 12 B/node link arrays.
	for _, c := range []struct {
		name                   string
		doc                    *Document
		store, resident, index int64
	}{
		{"tree", d, 851360, 966260, 41484},
		{"compact", Compact(d), 205128, 1058920, 21752},
		{"pointer parse", pd, 844992, 959892, 41484},
		{"columnar parse", cpd, 205128, 1058920, 21752},
	} {
		before := c.doc.ResidentBytes()
		c.doc.Index() // charged from the node-kind counts, built or not
		if got := c.doc.StoreSizeBytes(); got != c.store {
			t.Errorf("%s: StoreSizeBytes = %d, want %d", c.name, got, c.store)
		}
		if got := c.doc.ResidentBytes(); got != c.resident || got != before {
			t.Errorf("%s: ResidentBytes = %d (%d before the index), want %d", c.name, got, before, c.resident)
		}
		if got := c.doc.indexBytes(); got != c.index {
			t.Errorf("%s: index share = %d, want %d", c.name, got, c.index)
		}
		if c.doc.Backend() == BackendColumnar && c.doc.viewBytes != 832040 {
			t.Errorf("%s: view = %d, want 832040", c.name, c.doc.viewBytes)
		}
	}
	pointerBytes, storeBytes := pd.StoreSizeBytes(), cpd.StoreSizeBytes()
	if pointerBytes < 2*storeBytes {
		t.Fatalf("columnar store not ≥2x smaller: pointer %d, columnar %d (%.2fx)",
			pointerBytes, storeBytes, float64(pointerBytes)/float64(storeBytes))
	}
	if resident := cpd.ResidentBytes(); resident <= storeBytes {
		t.Fatalf("columnar ResidentBytes = %d must exceed store-only %d (hydrated view is resident)",
			resident, storeBytes)
	}
}

// Every route into the link core hands the index the document's own
// arrays and ord lists without copying them again: a columnar view
// lends its store's (the index's per-name lists are the store's), a
// pointer parse its exact-size copy of the scan's links and the scan's
// exact-size ord lists, kept once. Either index matches the tree-built
// one.
func TestIndexZeroCopyOnColumnar(t *testing.T) {
	for name, d := range storeTestDocs(t) {
		t.Run(name, func(t *testing.T) {
			c := NewColumnar(d)
			h := c.Document()
			hix := h.Index()
			if &hix.firstChild[0] != &c.firstChild[0] ||
				&hix.nextSibling[0] != &c.nextSibling[0] ||
				&hix.parent[0] != &c.parent[0] {
				t.Fatal("columnar-backed index did not share the store arrays")
			}
			if h.Columnar() != c {
				t.Fatal("columnar view lost its store")
			}
			if msg := sharedOrdLists(hix, c.tagOrds, c.attrOrds); msg != "" {
				t.Fatalf("columnar view: %s", msg)
			}
			if msg := diffIndexes(hix, d.Index()); msg != "" {
				t.Fatalf("columnar view: %s", msg)
			}
		})
	}
	p, err := ParseString(storeTestXML)
	if err != nil {
		t.Fatal(err)
	}
	core := p.links
	ix := p.Index()
	n := len(p.Nodes)
	for _, a := range []struct{ ix, core []int32 }{
		{ix.parent, core.parent}, {ix.firstChild, core.firstChild}, {ix.nextSibling, core.nextSibling},
	} {
		if &a.ix[0] != &a.core[0] || len(a.core) != n || cap(a.core) != n {
			t.Fatalf("pointer index does not alias an exact-size link core (len %d, cap %d, %d nodes)",
				len(a.core), cap(a.core), n)
		}
	}
	if msg := sharedOrdLists(ix, p.tagOrds, p.attrOrds); msg != "" {
		t.Fatalf("pointer parse: %s", msg)
	}
	for _, lists := range []map[string][]int32{p.tagOrds, p.attrOrds} {
		for name, l := range lists {
			if cap(l) != len(l) {
				t.Fatalf("pointer parse: ord list %q has capacity %d for %d ords", name, cap(l), len(l))
			}
		}
	}
	if p.Columnar() != nil {
		t.Fatal("pointer document reports a columnar store")
	}
	if msg := diffIndexes(ix, p.Copy().Index()); msg != "" {
		t.Fatalf("pointer parse: %s", msg)
	}
}

// sharedOrdLists describes the first per-name list of ix that is not
// the very slice its link core holds in tags or attrs (same backing,
// same length), or returns "".
func sharedOrdLists(ix *Index, tags, attrs map[string][]int32) string {
	for _, c := range []struct {
		what      string
		got, core map[string][]int32
	}{{"tag", ix.elemsByTag, tags}, {"attribute", ix.attrsByName, attrs}} {
		if len(c.got) != len(c.core) {
			return fmt.Sprintf("%d %s lists, the core has %d", len(c.got), c.what, len(c.core))
		}
		for name, l := range c.core {
			g := c.got[name]
			if len(g) != len(l) || len(l) > 0 && &g[0] != &l[0] {
				return fmt.Sprintf("%s list %q is a copy of the core's", c.what, name)
			}
		}
	}
	return ""
}

// Hydration, indexing and size accounting must be safe under
// concurrent first use (run with -race).
func TestStoreConcurrency(t *testing.T) {
	d, err := ParseString(storeTestXML)
	if err != nil {
		t.Fatal(err)
	}
	c := NewColumnar(d)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = d.StoreSizeBytes()
				_ = d.Index()
				h := c.Document()
				_ = h.Index()
				_ = h.ResidentBytes()
				_ = c.SizeBytes()
			}
		}()
	}
	wg.Wait()
}
