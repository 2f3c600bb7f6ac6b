package axes

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// indexedWays returns a document as every backend holds it: the
// tree-built original, its columnar conversion, and a pointer and a
// columnar parse of its serialization.
func indexedWays(t *testing.T, d *xmltree.Document) map[string]*xmltree.Document {
	t.Helper()
	src := d.XMLString()
	ways := map[string]*xmltree.Document{
		"tree":    d,
		"compact": xmltree.Compact(d.Copy()),
	}
	for _, backend := range []string{xmltree.BackendPointer, xmltree.BackendColumnar} {
		p, err := xmltree.ParseWith(strings.NewReader(src), xmltree.ParseConfig{Backend: backend})
		if err != nil {
			t.Fatalf("%s parse: %v", backend, err)
		}
		ways[backend] = p
	}
	return ways
}

// Metamorphic: the index-served selections must agree with the naive
// axis walks. For descendant, descendant-or-self, following and
// preceding, with every tag, *, text(), node(), comment() and
// processing-instruction(), from every context node including
// attributes, on every backend: AppendSelectOrds and AppendSelectFast
// (plus the context node, which they leave to descendant-or-self
// callers) return Select's document-order list, and
// AppendSelectProximity returns SelectProximity's. Each appends after a
// sentinel prefix, which must survive.
func TestIndexedSelectAgreesWithAxes(t *testing.T) {
	docs := []*xmltree.Document{}
	for seed := int64(3); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs = append(docs, xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 100, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"},
			TextProb: 0.3, AttrProb: 0.3,
		}))
	}
	mixed, err := xmltree.ParseString(`<a x="1"><!--c0--><b y="2"><?p0 v?>t0<c/><!--c1--></b>` +
		`<?p1 w?><b><c z="3">t1<?p0 u?></c></b>t2<!--c2--></a>`)
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, mixed)

	tests := []ast.NodeTest{
		{Kind: ast.TestStar}, {Kind: ast.TestText}, {Kind: ast.TestNode},
		{Kind: ast.TestComment}, {Kind: ast.TestPI},
		{Kind: ast.TestName, Name: "zz"},
	}
	for _, tag := range []string{"a", "b", "c", "d"} {
		tests = append(tests, ast.NodeTest{Kind: ast.TestName, Name: tag})
	}
	served := []ast.Axis{ast.AxisDescendant, ast.AxisDescendantOrSelf, ast.AxisFollowing, ast.AxisPreceding}

	for i, base := range docs {
		for way, d := range indexedWays(t, base) {
			ix := d.Index()
			for _, a := range served {
				for _, test := range tests {
					for _, n := range d.Nodes {
						where := fmt.Sprintf("doc %d %s: %v::%v from #%d", i, way, a, test, n.Ord)
						want := Select(a, test, n)
						var wantOrds []int32
						for _, m := range want {
							if m != n {
								wantOrds = append(wantOrds, m.Ord)
							}
						}

						ords, ok := AppendSelectOrds([]int32{-7}, ix, a, test, n.Ord)
						if !ok || ords[0] != -7 || !slices.Equal(ords[1:], wantOrds) {
							t.Fatalf("%s: AppendSelectOrds = %v (ok %v), want [-7] + %v", where, ords, ok, wantOrds)
						}

						sentinel := d.Nodes[0]
						got, ok := AppendSelectFast([]*xmltree.Node{sentinel}, ix, a, test, n)
						if a == ast.AxisDescendantOrSelf && MatchTest(a, n, test) {
							got = slices.Insert(got, 1, n)
						}
						if !ok || got[0] != sentinel || !slices.Equal(got[1:], want) {
							t.Fatalf("%s: AppendSelectFast = %s (ok %v), want %s", where, names(got[1:]), ok, names(want))
						}

						prox := AppendSelectProximity([]*xmltree.Node{sentinel}, ix, a, test, n)
						if wantProx := SelectProximity(a, test, n); prox[0] != sentinel || !slices.Equal(prox[1:], wantProx) {
							t.Fatalf("%s: AppendSelectProximity = %s, want %s", where, names(prox[1:]), names(wantProx))
						}
					}
				}
			}

			// Steps the index does not serve append nothing and report it.
			pi := ast.NodeTest{Kind: ast.TestPI, Name: "p0"}
			for _, a := range []ast.Axis{ast.AxisChild, ast.AxisDescendant} {
				if got, ok := AppendSelectOrds([]int32{-7}, ix, a, pi, 0); ok || len(got) != 1 {
					t.Fatalf("doc %d %s: %v::%v served: %v", i, way, a, pi, got)
				}
			}
		}
	}
}
