package rewrite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpathcomplexity/internal/eval/cvt"
	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/parser"
)

func canon(t *testing.T, q string, f func(ast.Expr) ast.Expr) string {
	t.Helper()
	return f(parser.MustParse(q)).String()
}

func TestPushNegationShapes(t *testing.T) {
	cases := []struct{ in, want string }{
		// De Morgan over and/or.
		{"not(a and b)", "not(child::a) or not(child::b)"},
		{"not(a or b)", "not(child::a) and not(child::b)"},
		{"not(a and (b or c))", "not(child::a) or (not(child::b) and not(child::c))"},
		// Double negation cancels.
		{"not(not(a))", "child::a"},
		{"not(not(not(a)))", "not(child::a)"},
		// RelOp flips for NaN-free numeric operands.
		{"not(position() < 3)", "position() >= 3"},
		{"not(position() + 1 = last())", "(position() + 1) != last()"},
		{"not(1 <= 2)", "1 > 2"},
		// div can make NaN: keep the not().
		{"not(1 div 0 = 2)", "not((1 div 0) = 2)"},
		// Negation stops at paths.
		{"not(a/b)", "not(child::a/child::b)"},
		// boolean() is transparent.
		{"not(boolean(a))", "not(child::a)"},
		// Negation inside predicates is rewritten independently.
		{"a[not(b and c)]", "child::a[not(child::b) or not(child::c)]"},
		// Non-negated queries are preserved structurally.
		{"a[b or c]", "child::a[child::b or child::c]"},
	}
	for _, tc := range cases {
		if got := canon(t, tc.in, PushNegation); got != tc.want {
			t.Errorf("PushNegation(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// After PushNegation, not() occurs only directly around location paths or
// label tests.
func TestPushNegationNormalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	gen := enginetest.NewQueryGen(rng, enginetest.GenFull)
	for trial := 0; trial < 300; trial++ {
		e := PushNegation(parser.MustParse(gen.Query()))
		ast.Walk(e, func(x ast.Expr) bool {
			if c, ok := x.(*ast.Call); ok && c.Name == "not" {
				switch c.Args[0].(type) {
				case *ast.Path, *ast.LabelTest:
				case *ast.Binary:
					b := c.Args[0].(*ast.Binary)
					if b.Op != ast.OpUnion && !b.Op.IsRelational() && !b.Op.IsArithmetic() {
						t.Fatalf("not() over %v survives in %s", b.Op, e)
					}
				case *ast.Call:
					inner := c.Args[0].(*ast.Call)
					if inner.Name == "not" || inner.Name == "boolean" {
						t.Fatalf("not(%s(...)) survives in %s", inner.Name, e)
					}
				}
			}
			return true
		})
	}
}

// PushNegation preserves semantics on random full queries across random
// documents.
func TestPushNegationPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gen := enginetest.NewQueryGen(rng, enginetest.GenFull)
	for trial := 0; trial < 400; trial++ {
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 18, MaxFanout: 3, Tags: []string{"a", "b", "c"}, TextProb: 0.2,
		})
		q := gen.Query()
		orig := parser.MustParse(q)
		rewritten := PushNegation(orig)
		ctx := evalctx.Root(doc)
		want, err1 := cvt.Evaluate(orig, ctx, nil)
		got, err2 := cvt.Evaluate(rewritten, ctx, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence on %q: %v vs %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !value.Equal(want, got) {
			t.Fatalf("semantics changed on %q:\n orig:      %v\n rewritten: %v (%s)",
				q, want, got, rewritten)
		}
	}
}

func TestFoldIteratedPredicates(t *testing.T) {
	cases := []struct {
		in, want string
		changed  bool
	}{
		{"a[b][c]", "child::a[child::b and child::c]", true},
		{"a[b][c][d]", "child::a[(child::b and child::c) and child::d]", true},
		{"a[b]", "child::a[child::b]", false},
		// Positional predicates must not be folded.
		{"a[b][1]", "child::a[child::b][1]", false},
		{"a[position() = 1][b]", "child::a[position() = 1][child::b]", false},
		{"a[b][last()]", "child::a[child::b][last()]", false},
		// Nested folding.
		{"a[b[c][d]]", "child::a[child::b[child::c and child::d]]", true},
	}
	for _, tc := range cases {
		got, changed := FoldIteratedPredicates(parser.MustParse(tc.in))
		if got.String() != tc.want || changed != tc.changed {
			t.Errorf("Fold(%q) = %q (changed=%v), want %q (changed=%v)",
				tc.in, got.String(), changed, tc.want, tc.changed)
		}
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	gen := enginetest.NewQueryGen(rng, enginetest.GenFull)
	checked := 0
	for trial := 0; trial < 600 && checked < 150; trial++ {
		q := gen.Query()
		orig := parser.MustParse(q)
		rewritten, changed := FoldIteratedPredicates(orig)
		if !changed {
			continue
		}
		checked++
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 18, MaxFanout: 3, Tags: []string{"a", "b", "c"},
		})
		ctx := evalctx.Root(doc)
		want, err1 := cvt.Evaluate(orig, ctx, nil)
		got, err2 := cvt.Evaluate(rewritten, ctx, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors on %q: %v / %v", q, err1, err2)
		}
		if !value.Equal(want, got) {
			t.Fatalf("fold changed semantics on %q → %s", q, rewritten)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d foldable queries generated", checked)
	}
}

func TestSplitPositionalConjunctions(t *testing.T) {
	cases := []struct {
		in, want string
		changed  bool
	}{
		{"//a[b and position() = last()]",
			"/descendant-or-self::node()/child::a[position() = last()][child::b]", true},
		{"a[position() = 1 and b]", "child::a[position() = 1][child::b]", true},
		// A chain splits into its positional part and each free conjunct.
		{"a[b and position() < 3 and c]", "child::a[position() < 3][child::b][child::c]", true},
		{"a[last() > 2 and b and c]", "child::a[last() > 2][child::b][child::c]", true},
		// Later predicates and nested paths split in place.
		{"a[b][c and position() = 2]", "child::a[child::b][position() = 2][child::c]", true},
		{"a[b[c and position() = 1]]", "child::a[child::b[position() = 1][child::c]]", true},
		{"a[not(b[c and last() = 2])]", "child::a[not(child::b[last() = 2][child::c])]", true},
		// Both sides positional, or neither: nothing to split.
		{"a[position() = 1 and last() = 2]", "child::a[(position() = 1) and (last() = 2)]", false},
		{"a[b and c]", "child::a[child::b and child::c]", false},
		// A disjunction does not split.
		{"a[b or position() = 1]", "child::a[child::b or (position() = 1)]", false},
		// Number-typed sides keep the conjunction: alone they would be
		// positional shorthands.
		{"a[count(b) and position() = 1]", "child::a[count(child::b) and (position() = 1)]", false},
		{"a[b and last()]", "child::a[child::b and last()]", false},
		// position() inside a nested path's predicate makes the side
		// count as positional (conservatively).
		{"a[b[position() = 1] and position() = 2]", "child::a[child::b[position() = 1] and (position() = 2)]", false},
	}
	for _, tc := range cases {
		got, changed := SplitPositionalConjunctions(parser.MustParse(tc.in))
		if got.String() != tc.want || changed != tc.changed {
			t.Errorf("Split(%q) = %q (changed=%v), want %q (changed=%v)",
				tc.in, got.String(), changed, tc.want, tc.changed)
		}
		// Remark 5.2's fold never undoes the split.
		if refolded, _ := FoldIteratedPredicates(got); refolded.String() != got.String() {
			t.Errorf("Fold(Split(%q)) = %q, undoing the split %q", tc.in, refolded, got)
		}
	}
}

// The split is checked against cvt on random documents, over generated
// positional queries wrapped as t[q and position() = k] or
// t[last() > k and q], and inside not().
func TestSplitPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gen := enginetest.NewQueryGen(rng, enginetest.GenFull)
	checked := 0
	for trial := 0; trial < 400; trial++ {
		tag := gen.Tags[rng.Intn(len(gen.Tags))]
		var q string
		switch trial % 4 {
		case 0:
			q = fmt.Sprintf("//%s[%s and position() = %d]", tag, gen.Query(), 1+rng.Intn(3))
		case 1:
			q = fmt.Sprintf("//%s[last() > %d and %s]", tag, rng.Intn(3), gen.Query())
		case 2:
			q = fmt.Sprintf("//%s[not(%s[%s and position() = last()])]", tag, tag, gen.Query())
		default:
			q = fmt.Sprintf("//%s[%s][position() != 2 and %s and %s]", tag, gen.Query(), gen.Query(), gen.Query())
		}
		orig, err := parser.Parse(q)
		if err != nil {
			continue
		}
		rewritten, changed := SplitPositionalConjunctions(orig)
		if !changed {
			continue
		}
		checked++
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 24, MaxFanout: 4, Tags: []string{"a", "b", "c"},
		})
		ctx := evalctx.Root(doc)
		want, err1 := cvt.Evaluate(orig, ctx, nil)
		got, err2 := cvt.Evaluate(rewritten, ctx, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors on %q: %v / %v", q, err1, err2)
		}
		if !value.Equal(want, got) {
			t.Fatalf("split changed semantics on %q → %s", q, rewritten)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d splittable queries generated", checked)
	}
}

func TestEliminateDoubleNegation(t *testing.T) {
	got, changed := EliminateDoubleNegation(parser.MustParse("a[not(not(b))]"))
	if !changed || got.String() != "child::a[boolean(child::b)]" {
		t.Fatalf("got %q (changed=%v)", got.String(), changed)
	}
	got, changed = EliminateDoubleNegation(parser.MustParse("a[not(b)]"))
	if changed || got.String() != "child::a[not(child::b)]" {
		t.Fatalf("got %q (changed=%v)", got.String(), changed)
	}
	// Quadruple negation collapses fully.
	got, _ = EliminateDoubleNegation(parser.MustParse("not(not(not(not(a))))"))
	if ast.NegationDepth(got) != 0 {
		t.Fatalf("residual negation in %q", got.String())
	}
}

// The practical payoff: folding moves harmless iterated-predicate queries
// into the fragment the nauxpda engine accepts (Remark 5.2).
func TestFoldEnablesNAuxPDA(t *testing.T) {
	orig := parser.MustParse("//a[b][c]")
	folded, changed := FoldIteratedPredicates(orig)
	if !changed {
		t.Fatal("expected folding")
	}
	if ast.MaxPredicateSeq(orig) != 2 || ast.MaxPredicateSeq(folded) != 1 {
		t.Fatalf("predicate seqs: %d → %d", ast.MaxPredicateSeq(orig), ast.MaxPredicateSeq(folded))
	}
}

func TestCollapseDescendantSteps(t *testing.T) {
	cases := []struct {
		in, want string
		changed  bool
	}{
		{"//a", "/descendant::a", true},
		{"//a//b", "/descendant::a/descendant::b", true},
		{"//a[b]", "/descendant::a[child::b]", true},
		{".//a", "self::node()/descendant::a", true},
		{"//.//a", "/descendant::a", true},
		{"/descendant-or-self::node()/descendant::a", "/descendant::a", true},
		{"/descendant-or-self::node()/descendant-or-self::a", "/descendant-or-self::a", true},
		{"/descendant-or-self::node()/self::a", "/descendant-or-self::a", true},
		// Inside predicates.
		{"a[.//b]", "child::a[self::node()/descendant::b]", true},
		// Positional and numeric predicates block the merge.
		{"//a[1]", "/descendant-or-self::node()/child::a[1]", false},
		{"//a[position() = 2]", "/descendant-or-self::node()/child::a[position() = 2]", false},
		{"//a[last()]", "/descendant-or-self::node()/child::a[last()]", false},
		// A predicate on the descendant-or-self step itself blocks it.
		{"/descendant-or-self::node()[b]/a", "/descendant-or-self::node()[child::b]/child::a", false},
		// Non-mergeable following axis.
		{"//a/parent::b", "/descendant::a/parent::b", true},
		{"/descendant-or-self::node()/following-sibling::a",
			"/descendant-or-self::node()/following-sibling::a", false},
	}
	for _, tc := range cases {
		got, changed := CollapseDescendantSteps(parser.MustParse(tc.in))
		if got.String() != tc.want || changed != tc.changed {
			t.Errorf("Collapse(%q) = %q (changed=%v), want %q (changed=%v)",
				tc.in, got.String(), changed, tc.want, tc.changed)
		}
	}
}

func TestCollapsePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gen := enginetest.NewQueryGen(rng, enginetest.GenFull)
	checked := 0
	for trial := 0; trial < 600 && checked < 150; trial++ {
		// The generator spells axes out and never writes node() tests, so
		// splice its queries into '//' abbreviations (which parse to the
		// descendant-or-self::node() steps the rewrite targets).
		q := gen.Query()
		if strings.HasPrefix(q, "/") {
			q = "//" + gen.Tags[rng.Intn(len(gen.Tags))] + "[" + q + "]"
		} else if trial%2 == 0 {
			q = "//" + q
		} else {
			q = ".//" + q
		}
		orig := parser.MustParse(q)
		rewritten, changed := CollapseDescendantSteps(orig)
		if !changed {
			continue
		}
		checked++
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 18, MaxFanout: 3, Tags: []string{"a", "b", "c"},
		})
		ctx := evalctx.Root(doc)
		want, err1 := cvt.Evaluate(orig, ctx, nil)
		got, err2 := cvt.Evaluate(rewritten, ctx, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors on %q: %v / %v", q, err1, err2)
		}
		if !value.Equal(want, got) {
			t.Fatalf("collapse changed semantics on %q → %s", q, rewritten)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d collapsible queries generated", checked)
	}
}
