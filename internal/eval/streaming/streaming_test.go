package streaming

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpathcomplexity/internal/eval/corelinear"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/parser"
)

func compile(t *testing.T, q string) *Program {
	t.Helper()
	p, err := Compile(parser.MustParse(q))
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	return p
}

func TestBasicCounts(t *testing.T) {
	doc := `<a><b><c/><c/></b><b><c><b/></c></b>text</a>`
	cases := []struct {
		q    string
		want int
	}{
		{"/a", 1},
		{"/a/b", 2},
		{"/a/b/c", 3},
		{"//c", 3},
		{"//b", 3},
		{"//b//b", 1},
		{"/a//c", 3},
		{"//c/b", 1},
		{"/descendant::b", 3},
		{"/a/descendant::c", 3},
		{"/a/*", 2},
		{"//*", 7},
		{"/a/text()", 1},
		{"//text()", 1},
		{"/z", 0},
		{"//z//c", 0},
	}
	for _, tc := range cases {
		p := compile(t, tc.q)
		got, err := p.Count(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		if got != tc.want {
			t.Errorf("Count(%q) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestNotStreamable(t *testing.T) {
	for _, q := range []string{
		"a/b",             // relative
		"/a[b]",           // predicate
		"/a/parent::b",    // upward axis
		"/a/following::b", // sideways axis
		"//a/..",          // parent
		"/a/b | /a/c",     // union
		"count(//a)",      // not a path
		"/",               // bare root
		"/a//",            // trailing // cannot parse anyway
		"/a/ancestor::b",  // upward
		"/a/self::b",      // self with name test
		"/a/@x",           // attributes are not streamed
	} {
		expr, err := parser.Parse(q)
		if err != nil {
			continue // some are parse errors; that's fine
		}
		if _, err := Compile(expr); !errors.Is(err, ErrNotStreamable) {
			t.Errorf("Compile(%q) = %v, want ErrNotStreamable", q, err)
		}
	}
}

func TestMatchCallback(t *testing.T) {
	p := compile(t, "//b/c")
	var matches []Match
	n, err := p.Run(strings.NewReader(`<a><b><c/></b><b><d><c/></d><c/></b></a>`), func(m Match) {
		matches = append(matches, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(matches) != 2 {
		t.Fatalf("n=%d matches=%v", n, matches)
	}
	for _, m := range matches {
		if m.Name != "c" || m.Depth != 3 {
			t.Errorf("match %+v, want c at depth 3", m)
		}
	}
}

// genDownward produces random downward PF queries.
func genDownward(rng *rand.Rand, tags []string) string {
	var b strings.Builder
	steps := 1 + rng.Intn(4)
	for i := 0; i < steps; i++ {
		switch rng.Intn(3) {
		case 0:
			b.WriteString("/")
		case 1:
			b.WriteString("//")
		default:
			b.WriteString("/descendant::")
			b.WriteString(pick(rng, tags))
			continue
		}
		if rng.Intn(5) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(pick(rng, tags))
		}
	}
	return b.String()
}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }

// The streaming engine agrees with the tree-based linear engine on random
// documents and random downward queries — while never building a tree.
func TestAgreementWithCorelinear(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	tags := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 30, MaxFanout: 4, Tags: tags,
		})
		q := genDownward(rng, tags)
		expr, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("generated %q: %v", q, err)
		}
		prog, err := Compile(expr)
		if err != nil {
			continue // e.g. "/descendant::a" after "//": fused forms are fine, others skipped
		}
		want, err := corelinear.Evaluate(expr, evalctx.Root(doc), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Count(strings.NewReader(doc.XMLString()))
		if err != nil {
			t.Fatal(err)
		}
		if got != len(want.(value.NodeSet)) {
			t.Fatalf("disagreement on %q: streaming %d, corelinear %d\ndoc: %s",
				q, got, len(want.(value.NodeSet)), doc.XMLString())
		}
	}
}

// Memory story: the active-state stack never exceeds the document depth.
func TestStackBoundedByDepth(t *testing.T) {
	depth := 200
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	b.WriteString("<hit/>")
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	p := compile(t, "//a/hit")
	n, err := p.Count(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d", n)
	}
}

// Huge flat documents stream without issue (the engine is O(1) memory per
// sibling).
func TestWideStreaming(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&b, "<item><v>%d</v></item>", i)
	}
	b.WriteString("</r>")
	p := compile(t, "/r/item/v")
	n, err := p.Count(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50_000 {
		t.Fatalf("count = %d", n)
	}
}

func TestStepLimit(t *testing.T) {
	q := "/" + strings.Repeat("a/", 70) + "a"
	_, err := Compile(parser.MustParse(q))
	if err == nil {
		t.Fatal("64+ step query should be rejected")
	}
	// The rejection is a capacity limit of this NFA encoding, not a
	// fragment violation — but callers matching errors.Is(err,
	// ErrNotStreamable) must still see it as outside the fragment, so a
	// 64-step PF query binds to another engine instead of aborting.
	if !errors.Is(err, ErrNotStreamable) {
		t.Errorf("step-limit rejection = %v, want errors.Is ErrNotStreamable", err)
	}
	// 63 steps still fits (63 step bits + 1 match bit in a uint64).
	q63 := "/" + strings.Repeat("a/", 62) + "a"
	if _, err := Compile(parser.MustParse(q63)); err != nil {
		t.Errorf("63-step query should compile: %v", err)
	}
}

func TestSourceRoundTrip(t *testing.T) {
	p := compile(t, "//a/b")
	if !strings.Contains(p.Source(), "descendant-or-self") {
		t.Errorf("Source() = %q", p.Source())
	}
}
