package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

func doc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestToBoolean(t *testing.T) {
	d := doc(t, "<a/>")
	cases := []struct {
		v    Value
		want bool
	}{
		{NodeSet{}, false},
		{NewNodeSet(d.Root), true},
		{Boolean(true), true},
		{Boolean(false), false},
		{Number(0), false},
		{Number(math.NaN()), false},
		{Number(-3), true},
		{Number(math.Inf(1)), true},
		{String(""), false},
		{String("false"), true}, // non-empty string is true
	}
	for _, tc := range cases {
		if got := ToBoolean(tc.v); got != tc.want {
			t.Errorf("ToBoolean(%#v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestToNumber(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
	}{
		{Boolean(true), 1},
		{Boolean(false), 0},
		{String("3.5"), 3.5},
		{String("  -4 "), -4},
		{String("1e3"), math.NaN()}, // scientific notation invalid in XPath
		{String("12px"), math.NaN()},
		{String(""), math.NaN()},
		{String("-"), math.NaN()},
		{String("."), math.NaN()},
		{String("1.2.3"), math.NaN()},
		{Number(7), 7},
	}
	for _, tc := range cases {
		got := ToNumber(tc.v)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("ToNumber(%#v) = %v, want NaN", tc.v, got)
			}
		} else if got != tc.want {
			t.Errorf("ToNumber(%#v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
		{0, "0"},
		{math.Copysign(0, -1), "0"},
		{3, "3"},
		{-17, "-17"},
		{3.25, "3.25"},
		{0.0000001, "0.0000001"}, // never scientific notation
		{1e14, "100000000000000"},
	}
	for _, tc := range cases {
		if got := FormatNumber(tc.f); got != tc.want {
			t.Errorf("FormatNumber(%v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestToString(t *testing.T) {
	d := doc(t, "<a><b>x</b><b>y</b></a>")
	bs := NewNodeSet(d.FindAll(func(n *xmltree.Node) bool { return n.Name == "b" })...)
	cases := []struct {
		v    Value
		want string
	}{
		{bs, "x"}, // first node in document order
		{NodeSet{}, ""},
		{Boolean(true), "true"},
		{Boolean(false), "false"},
		{Number(2.5), "2.5"},
		{String("s"), "s"},
	}
	for _, tc := range cases {
		if got := ToString(tc.v); got != tc.want {
			t.Errorf("ToString(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestNodeSetOps(t *testing.T) {
	d := doc(t, "<a><b/><c/><e/></a>")
	b := d.FindFirstElement("b")
	c := d.FindFirstElement("c")
	e := d.FindFirstElement("e")
	// Out-of-order, duplicated input gets normalized.
	ns := NewNodeSet(e, b, e, b)
	if len(ns) != 2 || ns[0] != b || ns[1] != e {
		t.Fatalf("NewNodeSet normalization wrong: %v", ns)
	}
	u := ns.Union(NewNodeSet(c, e))
	if len(u) != 3 || u[0] != b || u[1] != c || u[2] != e {
		t.Fatalf("Union wrong: %v", u)
	}
	if !u.Contains(c) || ns.Contains(c) {
		t.Error("Contains wrong")
	}
	if !ns.Equal(NewNodeSet(b, e)) || ns.Equal(u) {
		t.Error("Equal wrong")
	}
}

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		op   ast.BinOp
		a, b Value
		want bool
	}{
		{ast.OpEq, Number(1), Number(1), true},
		{ast.OpEq, Number(1), String("1"), true},
		{ast.OpEq, String("a"), String("a"), true},
		{ast.OpNeq, String("a"), String("b"), true},
		{ast.OpEq, Boolean(true), String("x"), true}, // boolean wins: "x" → true
		{ast.OpEq, Boolean(false), String(""), true}, // "" → false
		{ast.OpLt, String("2"), String("10"), true},  // relational compares numbers
		{ast.OpLt, Number(math.NaN()), Number(1), false},
		{ast.OpNeq, Number(math.NaN()), Number(math.NaN()), true},
		{ast.OpEq, Number(math.NaN()), Number(math.NaN()), false},
		{ast.OpGe, Number(2), Number(2), true},
		{ast.OpLe, Boolean(false), Number(1), true}, // false→0 <= 1
	}
	for _, tc := range cases {
		if got := Compare(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %#v, %#v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareNodeSets(t *testing.T) {
	d := doc(t, "<a><b>1</b><b>5</b><c>5</c></a>")
	bs := NewNodeSet(d.FindAll(func(n *xmltree.Node) bool { return n.Name == "b" })...)
	cs := NewNodeSet(d.FindAll(func(n *xmltree.Node) bool { return n.Name == "c" })...)
	empty := NodeSet{}
	cases := []struct {
		op   ast.BinOp
		a, b Value
		want bool
	}{
		// Existential node-set vs scalar.
		{ast.OpEq, bs, Number(5), true},
		{ast.OpEq, bs, Number(7), false},
		{ast.OpEq, bs, String("1"), true},
		{ast.OpLt, bs, Number(2), true}, // node "1" < 2
		{ast.OpGt, bs, Number(10), false},
		// Existential set vs set: b={1,5}, c={5} share 5.
		{ast.OpEq, bs, cs, true},
		{ast.OpNeq, bs, cs, true}, // 1 != 5 also holds existentially
		{ast.OpLt, cs, bs, false}, // 5 < {1,5}? no
		{ast.OpLt, bs, cs, true},  // 1 < 5
		// Empty set: existential comparisons are all false...
		{ast.OpEq, empty, Number(0), false},
		{ast.OpNeq, empty, Number(0), false},
		// ...but boolean comparisons convert with boolean() first.
		{ast.OpEq, empty, Boolean(false), true},
		{ast.OpEq, Boolean(false), empty, true},
		{ast.OpEq, bs, Boolean(true), true},
		{ast.OpNeq, bs, Boolean(false), true},
	}
	for _, tc := range cases {
		if got := Compare(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op      ast.BinOp
		a, b, w float64
	}{
		{ast.OpAdd, 1, 2, 3},
		{ast.OpSub, 1, 2, -1},
		{ast.OpMul, 3, 4, 12},
		{ast.OpDiv, 1, 4, 0.25},
		{ast.OpMod, 5, 2, 1},
		{ast.OpMod, -5, 2, -1}, // sign of dividend (XPath mod)
		{ast.OpMod, 5, -2, 1},
	}
	for _, tc := range cases {
		if got := Arith(tc.op, tc.a, tc.b); got != tc.w {
			t.Errorf("Arith(%v, %v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.w)
		}
	}
	if !math.IsInf(Arith(ast.OpDiv, 1, 0), 1) {
		t.Error("1 div 0 should be +Infinity")
	}
	if !math.IsNaN(Arith(ast.OpDiv, 0, 0)) {
		t.Error("0 div 0 should be NaN")
	}
}

// TestParseNumberGrammar pins ParseNumber to the §3.7 Number production:
// Digits ('.' Digits?)? | '.' Digits, with an optional leading '-'
// (number() applies the unary minus itself) and surrounding XML
// whitespace. Notably the grammar has no '+' sign and no exponent form,
// unlike strconv.ParseFloat — those must parse to NaN.
func TestParseNumberGrammar(t *testing.T) {
	accept := []struct {
		in   string
		want float64
	}{
		{"5", 5},
		{"5.", 5},
		{".5", 0.5},
		{"-.5", -0.5},
		{"-5.", -5},
		{"1.5", 1.5},
		{"-0", math.Copysign(0, -1)},
		{"  12 \t\r\n", 12},
		{"007", 7},
	}
	for _, tc := range accept {
		got := ParseNumber(tc.in)
		if got != tc.want || math.Signbit(got) != math.Signbit(tc.want) {
			t.Errorf("ParseNumber(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	reject := []string{
		"+5", "1e3", "1E3", "0x10", "1.2.3", ".", "-", "-.",
		"1,000", "Infinity", "-Infinity", "NaN", "1 2", "5f", "", "  ",
	}
	for _, in := range reject {
		if got := ParseNumber(in); !math.IsNaN(got) {
			t.Errorf("ParseNumber(%q) = %v, want NaN (outside §3.7 grammar)", in, got)
		}
	}
}

// TestFormatParseRoundTrip feeds FormatNumber output back through
// ParseNumber for representative finite values — every rendering
// FormatNumber produces must be inside the §3.7 grammar.
func TestFormatParseRoundTrip(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.5, -0.5, 1e14, -1e14, 1e15, 123456.75,
		0.1, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		s := FormatNumber(f)
		if got := ParseNumber(s); got != f {
			t.Errorf("ParseNumber(FormatNumber(%v)) = %v via %q", f, got, s)
		}
	}
	// Specials format to the XPath names, which are NOT in the number
	// grammar: they re-parse as NaN, matching number('Infinity') = NaN.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := ParseNumber(FormatNumber(f)); !math.IsNaN(got) {
			t.Errorf("ParseNumber(FormatNumber(%v)) = %v, want NaN", f, got)
		}
	}
}

// Property: ParseNumber(FormatNumber(f)) == f for finite, reasonable floats.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(raw int64) bool {
		v := float64(raw%1_000_000) / 64.0
		return ParseNumber(FormatNumber(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union is commutative, associative, idempotent on random
// subsets of a document.
func TestQuickUnionLaws(t *testing.T) {
	d := doc(t, "<a><b/><c/><e/><f/><g/><h/></a>")
	rng := rand.New(rand.NewSource(1))
	pick := func() NodeSet {
		var ns []*xmltree.Node
		for _, n := range d.Nodes {
			if rng.Intn(2) == 0 {
				ns = append(ns, n)
			}
		}
		return NewNodeSet(ns...)
	}
	for i := 0; i < 200; i++ {
		a, b, c := pick(), pick(), pick()
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatal("union not commutative")
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			t.Fatal("union not associative")
		}
		if !a.Union(a).Equal(a) {
			t.Fatal("union not idempotent")
		}
	}
}

func TestValueEqual(t *testing.T) {
	d := doc(t, "<a><b/></a>")
	b := d.FindFirstElement("b")
	cases := []struct {
		a, b Value
		want bool
	}{
		{Number(1), Number(1), true},
		{Number(math.NaN()), Number(math.NaN()), true},
		{Number(1), String("1"), false}, // different kinds are not Equal
		{NewNodeSet(b), NewNodeSet(b), true},
		{NewNodeSet(b), NodeSet{}, false},
		{String("x"), String("x"), true},
		{Boolean(true), Boolean(false), false},
	}
	for _, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("Equal(%#v, %#v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// The AST's number printer and the value model's string() conversion must
// agree on plain decimal rendering (both are XPath number syntax).
func TestNumberPrintingConsistentWithAST(t *testing.T) {
	for _, f := range []float64{0, 3, -17, 3.25, 0.0000001, 1e14, 1000000, 123456.75} {
		n := &ast.Number{Val: f}
		if got, want := n.String(), FormatNumber(f); got != want {
			t.Errorf("ast.Number(%v).String() = %q, value.FormatNumber = %q", f, got, want)
		}
		// Both must re-parse to the same value under XPath number syntax.
		if ParseNumber(n.String()) != f {
			t.Errorf("ast rendering of %v does not round-trip: %q", f, n.String())
		}
	}
}

// TestLiteralCmp pins the per-node comparison every engine shares: the
// same verdict through LiteralCmp.Match, through Compare's existential
// node-set loop, and with the literal on the left under MirrorOp.
func TestLiteralCmp(t *testing.T) {
	cases := []struct {
		op   ast.BinOp
		s    string
		lit  Value
		want bool
	}{
		{ast.OpEq, "5", Number(5), true},
		{ast.OpEq, " 5 ", Number(5), true},    // number() trims whitespace
		{ast.OpEq, " 5 ", String("5"), false}, // strings compare verbatim
		{ast.OpNeq, "x", Number(5), true},     // NaN != anything
		{ast.OpEq, "x", Number(5), false},
		{ast.OpLt, "x", Number(5), false},
		{ast.OpGe, "x", Number(5), false},
		{ast.OpLt, "3", String("10"), true}, // relational: numbers, not strings
		{ast.OpLt, "3", String("abc"), false},
		{ast.OpNeq, "abc", String("abc"), false},
		{ast.OpEq, "", String(""), true},
		{ast.OpGt, "2.5", Number(2), true},
		{ast.OpLe, "-1", Number(-1), true},
		{ast.OpGt, "7", Number(7), false},
	}
	for _, tc := range cases {
		if got := NewLiteralCmp(tc.op, tc.lit).Match(tc.s); got != tc.want {
			t.Errorf("NewLiteralCmp(%v, %#v).Match(%q) = %v, want %v", tc.op, tc.lit, tc.s, got, tc.want)
		}
		d := doc(t, "<a>"+tc.s+"</a>")
		ns := NewNodeSet(d.DocumentElement())
		if got := Compare(tc.op, ns, tc.lit); got != tc.want {
			t.Errorf("Compare(%v, <a>%s</a>, %#v) = %v, want %v", tc.op, tc.s, tc.lit, got, tc.want)
		}
		if got := Compare(MirrorOp(tc.op), tc.lit, ns); got != tc.want {
			t.Errorf("Compare(%v, %#v, <a>%s</a>) = %v, want %v", MirrorOp(tc.op), tc.lit, tc.s, got, tc.want)
		}
	}
}
