package xmltree_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/xmltree"
)

// randomIndexedDoc builds a random document with some text, attribute,
// comment and PI variety for index testing.
func randomIndexedDoc(t *testing.T, seed int64, nodes int) *xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := xmltree.RandomDocument(rng, xmltree.GenConfig{
		Nodes: nodes, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"},
		TextProb: 0.3, AttrProb: 0.3,
	})
	return d
}

// Metamorphic: pre/post interval tests must agree with the naive
// parent-chain walk on every sampled node pair, and document order (Ord)
// must agree with the position in a full Walk.
func TestIndexPrePostAgreesWithWalks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := randomIndexedDoc(t, seed, 120)
		chainAncestor := func(a, m *xmltree.Node) bool {
			for p := m.Parent; p != nil; p = p.Parent {
				if p == a {
					return true
				}
			}
			return false
		}
		rng := rand.New(rand.NewSource(seed * 7))
		for trial := 0; trial < 500; trial++ {
			a := d.Nodes[rng.Intn(len(d.Nodes))]
			m := d.Nodes[rng.Intn(len(d.Nodes))]
			if got, want := a.IsAncestorOf(m), chainAncestor(a, m); got != want {
				t.Fatalf("seed %d: IsAncestorOf(#%d, #%d) = %v, chain walk says %v",
					seed, a.Ord, m.Ord, got, want)
			}
		}
		// Ord agrees with pre-order Walk position (attributes after owner).
		i := 0
		d.Root.Walk(func(n *xmltree.Node) bool {
			if int(n.Ord) != i {
				t.Fatalf("seed %d: walk position %d has Ord %d", seed, i, n.Ord)
			}
			i++
			return true
		})
	}
}

// Metamorphic: every index list must agree with a full document scan.
func TestIndexListsAgreeWithFullScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := randomIndexedDoc(t, seed, 150)
		ix := d.Index()
		byTag := map[string][]*xmltree.Node{}
		byAttr := map[string][]*xmltree.Node{}
		var elements, texts []*xmltree.Node
		for _, n := range d.Nodes {
			switch n.Type {
			case xmltree.ElementNode:
				byTag[n.Name] = append(byTag[n.Name], n)
				elements = append(elements, n)
			case xmltree.AttributeNode:
				byAttr[n.Name] = append(byAttr[n.Name], n)
			case xmltree.TextNode:
				texts = append(texts, n)
			}
		}
		sameNodes := func(what string, got, want []*xmltree.Node) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s: %d nodes, scan found %d", seed, what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: %s: node %d differs (#%d vs #%d)",
						seed, what, i, got[i].Ord, want[i].Ord)
				}
			}
		}
		for tag, want := range byTag {
			sameNodes("tag "+tag, ix.ElementsByTag(tag), want)
		}
		for name, want := range byAttr {
			sameNodes("attr "+name, ix.AttributesByName(name), want)
		}
		sameNodes("elements", ix.Elements(), elements)
		sameNodes("texts", ix.Texts(), texts)
		if got := ix.ElementsByTag("no-such-tag"); got != nil {
			t.Fatalf("unknown tag returned %d nodes", len(got))
		}
	}
}

// Metamorphic: every route into the link core builds the same index.
// Each document is indexed four ways — pointer parse, columnar parse,
// tree-built Copy and its Compact conversion — over the conformance
// corpus, the FuzzParse seeds and the storage suite's documents, and
// all four must agree on the link arrays, the attribute mask and every
// per-tag, per-attribute and per-kind list; the links must also mirror
// each view's own pointer structure node by node.
func TestIndexFlatArraysMirrorPointers(t *testing.T) {
	sources := map[string]*xmltree.Document{}
	for name, src := range enginetest.Docs {
		sources["corpus/"+name] = parseBackend(t, src, xmltree.BackendPointer)
	}
	for i, src := range xmltree.FuzzParseSeeds() {
		if d, err := xmltree.ParseString(src); err == nil {
			sources[fmt.Sprintf("fuzz/%d", i)] = d
		}
	}
	for name, d := range xmltree.StoreTestDocs(t) {
		sources["store/"+name] = d
	}
	sources["random"] = randomIndexedDoc(t, 42, 200)
	for name, d := range sources {
		t.Run(name, func(t *testing.T) {
			ways := map[string]*xmltree.Document{
				"copy":    d.Copy(),
				"compact": xmltree.Compact(d.Copy()),
			}
			// Extra labels do not survive serialization, so a labeled
			// document has no parse arms.
			if !hasLabels(d) {
				src := d.XMLString()
				ways["pointer"] = parseBackend(t, src, xmltree.BackendPointer)
				ways["columnar"] = parseBackend(t, src, xmltree.BackendColumnar)
			}
			want := ways["copy"].Index()
			for way, w := range ways {
				if msg := xmltree.DiffIndexes(w.Index(), want); msg != "" {
					t.Fatalf("%s: %s", way, msg)
				}
				checkLinksMirrorPointers(t, way, w)
			}
		})
	}
}

func parseBackend(t *testing.T, src, backend string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseWith(strings.NewReader(src), xmltree.ParseConfig{Backend: backend})
	if err != nil {
		t.Fatalf("%s parse of %q: %v", backend, src, err)
	}
	return d
}

func hasLabels(d *xmltree.Document) bool {
	for _, n := range d.Nodes {
		if len(n.Labels()) > 0 {
			return true
		}
	}
	return false
}

// checkLinksMirrorPointers asserts the index's link arrays against the
// document's node graph.
func checkLinksMirrorPointers(t *testing.T, way string, d *xmltree.Document) {
	t.Helper()
	ix := d.Index()
	parent, firstChild, nextSibling := ix.ParentOrds(), ix.FirstChildOrds(), ix.NextSiblingOrds()
	for _, n := range d.Nodes {
		wantP, wantFC, wantNS := -1, -1, -1
		if n.Parent != nil {
			wantP = int(n.Parent.Ord)
		}
		if n.Type != xmltree.AttributeNode {
			if len(n.Children) > 0 {
				wantFC = int(n.Children[0].Ord)
			}
			if s := n.NextSibling(); s != nil {
				wantNS = int(s.Ord)
			}
		}
		if int(parent[n.Ord]) != wantP || int(firstChild[n.Ord]) != wantFC || int(nextSibling[n.Ord]) != wantNS {
			t.Fatalf("%s: #%d links (parent %d, first child %d, next sibling %d), want (%d, %d, %d)",
				way, n.Ord, parent[n.Ord], firstChild[n.Ord], nextSibling[n.Ord], wantP, wantFC, wantNS)
		}
	}
}

// Metamorphic: SubtreeSlice/FollowingSlice/PrecedingScan over every tag
// list must agree with the naive definition via ancestor walks, for
// every context node including attributes.
func TestIndexSlicesAgreeWithNaiveDefinitions(t *testing.T) {
	for seed := int64(3); seed <= 6; seed++ {
		d := randomIndexedDoc(t, seed, 100)
		ix := d.Index()
		tags := []string{"zz"}
		for _, n := range d.Nodes {
			if n.Type == xmltree.ElementNode && !slices.Contains(tags, n.Name) {
				tags = append(tags, n.Name)
			}
		}
		for _, tag := range tags {
			list := ix.ElementsByTag(tag)
			for _, n := range d.Nodes {
				var wantDesc, wantFoll, wantPrec []*xmltree.Node
				anchor := n
				if n.Type == xmltree.AttributeNode {
					anchor = n.Parent
				}
				for _, m := range list {
					switch {
					case n.Type != xmltree.AttributeNode && n.IsAncestorOf(m):
						wantDesc = append(wantDesc, m)
					case n.Type == xmltree.AttributeNode && m.Ord > n.Ord:
						wantFoll = append(wantFoll, m)
					case n.Type != xmltree.AttributeNode && m.Pre > n.Pre && !n.IsAncestorOf(m):
						wantFoll = append(wantFoll, m)
					}
					if m.Pre < anchor.Pre && !m.IsAncestorOf(anchor) && m != anchor {
						wantPrec = append(wantPrec, m)
					}
				}
				check := func(what string, got, want []*xmltree.Node) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("seed %d tag %s ctx #%d: %s: got %d, want %d",
							seed, tag, n.Ord, what, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d tag %s ctx #%d: %s differs at %d", seed, tag, n.Ord, what, i)
						}
					}
				}
				check("subtree", xmltree.SubtreeSlice(list, n), wantDesc)
				check("following", xmltree.FollowingSlice(list, n), wantFoll)
				if anchor != nil {
					check("preceding", xmltree.PrecedingScan(nil, list, n), wantPrec)
				}
			}
		}
	}
}

// The index is built exactly once per document, even under concurrent
// first use (run with -race), and rebuilding the document through the
// build entry point invalidates it.
func TestIndexConcurrentFirstBuildAndInvalidation(t *testing.T) {
	d := randomIndexedDoc(t, 9, 300)
	const goroutines = 16
	got := make([]*xmltree.Index, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = d.Index()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d observed a different index", g)
		}
	}
	if d.Index() != got[0] {
		t.Fatal("index not cached after concurrent build")
	}
	// Copy re-numbers through the single build entry point: the copy's
	// index is fresh and the original's stays valid.
	cp := d.Copy()
	if cp.Index() == got[0] {
		t.Fatal("copied document shares the original's index")
	}
	if d.Index() != got[0] {
		t.Fatal("copying invalidated the original document's index")
	}
}

// TestWords computes each key once and returns the same value
// thereafter, including under concurrency.
func TestIndexTestWordsCache(t *testing.T) {
	d := randomIndexedDoc(t, 10, 50)
	ix := d.Index()
	k := xmltree.TestKey{Principal: xmltree.ElementNode, Name: "a"}
	v1 := ix.TestWords(k, func() []uint64 { return []uint64{1} })
	v2 := ix.TestWords(k, func() []uint64 { t.Fatal("built twice"); return nil })
	if &v1[0] != &v2[0] {
		t.Fatal("TestWords returned different values for the same key")
	}
	var wg sync.WaitGroup
	vals := make([][]uint64, 32)
	k2 := xmltree.TestKey{Principal: xmltree.AttributeNode, Name: "a"}
	for g := range vals {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g] = ix.TestWords(k2, func() []uint64 { return make([]uint64, 1) })
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(vals); g++ {
		if &vals[g][0] != &vals[0][0] {
			t.Fatal("TestWords published two values for one key")
		}
	}
	if got := testing.AllocsPerRun(100, func() { ix.TestWords(k, nil) }); got != 0 {
		t.Fatalf("a cached lookup allocates %v times", got)
	}
}
