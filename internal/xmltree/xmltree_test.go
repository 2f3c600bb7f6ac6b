package xmltree

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return d
}

func TestParseSimple(t *testing.T) {
	d := mustParse(t, `<a><b x="1">hi</b><c/></a>`)
	if d.Root.Type != RootNode {
		t.Fatalf("root type = %v", d.Root.Type)
	}
	de := d.DocumentElement()
	if de == nil || de.Name != "a" {
		t.Fatalf("document element = %v", de)
	}
	if len(de.Children) != 2 {
		t.Fatalf("children of a = %d", len(de.Children))
	}
	b := de.Children[0]
	if b.Name != "b" {
		t.Fatalf("first child = %q", b.Name)
	}
	if v, ok := b.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q, %v", v, ok)
	}
	if got := b.StringValue(); got != "hi" {
		t.Fatalf("string-value of b = %q", got)
	}
	if got := de.StringValue(); got != "hi" {
		t.Fatalf("string-value of a = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a>", "</a>", "<a></b>", "just text"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q): expected error", bad)
		}
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	d := mustParse(t, "<a>\n  <b/>\n</a>")
	de := d.DocumentElement()
	if len(de.Children) != 1 {
		t.Fatalf("whitespace-only text should be dropped; got %d children", len(de.Children))
	}
	d2, err := ParseOptions(strings.NewReader("<a>\n  <b/>\n</a>"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.DocumentElement().Children) != 3 {
		t.Fatalf("keepSpace should preserve text nodes; got %d children", len(d2.DocumentElement().Children))
	}
}

func TestParseCommentAndPI(t *testing.T) {
	d := mustParse(t, `<a><!--note--><?pi data?></a>`)
	de := d.DocumentElement()
	if len(de.Children) != 2 {
		t.Fatalf("children = %d", len(de.Children))
	}
	if de.Children[0].Type != CommentNode || de.Children[0].Data != "note" {
		t.Errorf("comment = %+v", de.Children[0])
	}
	if de.Children[1].Type != ProcInstNode || de.Children[1].Name != "pi" {
		t.Errorf("pi = %+v", de.Children[1])
	}
}

func TestDocumentOrder(t *testing.T) {
	d := mustParse(t, `<a><b y="2"><c/></b><d/></a>`)
	var names []string
	for _, n := range d.Nodes {
		switch n.Type {
		case RootNode:
			names = append(names, "/")
		case AttributeNode:
			names = append(names, "@"+n.Name)
		default:
			names = append(names, n.Name)
		}
	}
	want := "/ a b @y c d"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("document order = %q, want %q", got, want)
	}
	for i, n := range d.Nodes {
		if int(n.Ord) != i {
			t.Fatalf("Ord mismatch at %d: %d", i, n.Ord)
		}
	}
}

func TestPrePostAncestor(t *testing.T) {
	d := mustParse(t, `<a><b><c/><e/></b><d/></a>`)
	get := func(name string) *Node {
		n := d.FindFirstElement(name)
		if n == nil {
			t.Fatalf("no element %q", name)
		}
		return n
	}
	a, b, c, dd, e := get("a"), get("b"), get("c"), get("d"), get("e")
	cases := []struct {
		anc, desc *Node
		want      bool
	}{
		{a, b, true}, {a, c, true}, {a, dd, true}, {b, c, true}, {b, e, true},
		{b, dd, false}, {c, e, false}, {c, b, false}, {b, a, false},
		{d.Root, a, true}, {d.Root, e, true}, {a, a, false},
	}
	for _, tc := range cases {
		if got := tc.anc.IsAncestorOf(tc.desc); got != tc.want {
			t.Errorf("IsAncestorOf(%s,%s) = %v, want %v", tc.anc.Name, tc.desc.Name, got, tc.want)
		}
	}
}

func TestAttributeAncestry(t *testing.T) {
	d := mustParse(t, `<a><b x="1"/></a>`)
	b := d.FindFirstElement("b")
	at := b.Attrs[0]
	if !d.Root.IsAncestorOf(at) {
		t.Error("root should be ancestor of attribute")
	}
	if !b.IsAncestorOf(at) {
		t.Error("owner should be ancestor of attribute")
	}
	if at.IsAncestorOf(b) {
		t.Error("attribute is not an ancestor of its owner")
	}
}

func TestSiblings(t *testing.T) {
	d := mustParse(t, `<a><b/><c/><e/></a>`)
	b := d.FindFirstElement("b")
	c := d.FindFirstElement("c")
	e := d.FindFirstElement("e")
	if b.NextSibling() != c || c.NextSibling() != e || e.NextSibling() != nil {
		t.Error("NextSibling chain broken")
	}
	if e.PrevSibling() != c || c.PrevSibling() != b || b.PrevSibling() != nil {
		t.Error("PrevSibling chain broken")
	}
}

func TestLabels(t *testing.T) {
	n := ElemL("g", []string{"G", "I2", "I3"})
	if !n.HasLabel("G") || !n.HasLabel("I3") || n.HasLabel("O1") {
		t.Error("label membership wrong")
	}
	if got := strings.Join(n.Labels(), ","); got != "G,I2,I3" {
		t.Errorf("Labels() = %q", got)
	}
}

// Labels live in the document's table by Ord, so they must follow a
// node through every numbering: out of a loose node's holder, from one
// document into the next, into a Copy and through the columnar store.
func TestLabelsFollowNumbering(t *testing.T) {
	loose := ElemL("v", []string{"B", "A"})
	loose.AddLabel("A") // a duplicate is a no-op
	if loose.Document() != nil {
		t.Fatal("a loose labeled node reports a document")
	}
	plain := Elem("w")
	d := NewDocument(Elem("r", loose, plain))
	if loose.Document() != d || strings.Join(loose.Labels(), ",") != "A,B" || plain.HasLabel("A") {
		t.Fatalf("labels did not move into the document: %v on v, %v on w", loose.Labels(), plain.Labels())
	}
	plain.AddLabel("C") // a finalized node labels in place
	moved := NewDocument(d.Root.Children...)
	var ords []int
	moved.EachLabeled("A", func(ord int) { ords = append(ords, ord) })
	if len(ords) != 1 || moved.Nodes[ords[0]] != loose {
		t.Errorf("EachLabeled(A) = %v, want the ord of v (%d)", ords, loose.Ord)
	}
	cp := moved.Copy()
	for name, doc := range map[string]*Document{"renumbered": moved, "copy": cp, "columnar": Compact(cp)} {
		v, w := doc.FindFirstElement("v"), doc.FindFirstElement("w")
		if !v.HasLabel("A") || !v.HasLabel("B") || v.HasLabel("C") || !w.HasLabel("C") || len(w.Labels()) != 1 {
			t.Errorf("%s: labels %v on v, %v on w", name, v.Labels(), w.Labels())
		}
		if doc.Root.HasLabel("A") || doc.FindFirstElement("r").Labels() != nil {
			t.Errorf("%s: labels leaked to an unlabeled node", name)
		}
	}
	cp.FindFirstElement("w").AddLabel("D")
	if moved.FindFirstElement("w").HasLabel("D") {
		t.Error("a label added to a copy reached the original")
	}
	c := NewColumnar(moved)
	view := c.Document()
	view.FindFirstElement("v").AddLabel("E")
	if c.Document().FindFirstElement("v").HasLabel("E") {
		t.Error("a label added to a hydrated view reached its store")
	}
	if got := moved.FindFirstElement("v").Labels(); strings.Join(got, ",") != "A,B" {
		t.Errorf("Labels() = %v after the copies were labeled", got)
	}
}

// TestNodeLayout pins the Node handle at 120 bytes on 64-bit platforms,
// the size the registry's accounting and the resident heap follow; a
// field added later has to name its bytes here.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned layout is that of a 64-bit platform")
	}
	if got := unsafe.Sizeof(Node{}); got != 120 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 120", got)
	}
	if got := unsafe.Offsetof(Node{}.Name); got != 24 {
		t.Errorf("Type and the four int32 numbers take %d bytes, want 24", got)
	}
}

// The numbering refuses a node count an int32 Ord cannot hold, with the
// message NewColumnar panics with; the bound is checked on a count, not
// on a 2^31-node tree.
func TestOrdWidthGuard(t *testing.T) {
	over := int64(math.MaxInt32) + 1
	if int64(int(over)) != over {
		t.Skip("an int cannot count past the int32 ord width here")
	}
	checkOrdWidth(math.MaxInt32) // the largest numberable document
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprintf("xmltree: document of %d nodes exceeds the columnar ord width", over); msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	checkOrdWidth(int(over))
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<a x="1"><b>hi &amp; ho</b><c/><!--n--></a>`
	d := mustParse(t, src)
	out := d.XMLString()
	d2 := mustParse(t, out)
	if d2.XMLString() != out {
		t.Fatalf("round trip unstable:\n1: %s\n2: %s", out, d2.XMLString())
	}
	if ComputeStats(d) != ComputeStats(d2) {
		t.Fatalf("stats differ: %+v vs %+v", ComputeStats(d), ComputeStats(d2))
	}
}

// Escaping text or an attribute value that needs no escape allocates
// nothing: the serializer writes one per text node and attribute.
func TestEscapeAllocs(t *testing.T) {
	if got := escapeText("a < b & c > d"); got != "a &lt; b &amp; c &gt; d" {
		t.Fatalf("escapeText = %q", got)
	}
	if got := escapeAttr(`a < "b" & c`); got != "a &lt; &quot;b&quot; &amp; c" {
		t.Fatalf("escapeAttr = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { escapeText("plain text") }); n != 0 {
		t.Fatalf("escapeText of plain text: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { escapeAttr("plain value") }); n != 0 {
		t.Fatalf("escapeAttr of a plain value: %v allocations, want 0", n)
	}
}

func TestSerializeLabelsRoundTrip(t *testing.T) {
	d := NewDocument(ElemL("v", []string{"G", "R"}, ElemL("w", []string{"I1"})))
	out := d.XMLString()
	parsed := mustParse(t, out)
	restored := ParseLabels(parsed)
	v := restored.FindFirstElement("v")
	if v == nil || !v.HasLabel("G") || !v.HasLabel("R") {
		t.Fatalf("labels not restored on v: %s", out)
	}
	w := restored.FindFirstElement("w")
	if w == nil || !w.HasLabel("I1") {
		t.Fatalf("labels not restored on w: %s", out)
	}
	if _, ok := v.Attr("labels"); ok {
		t.Error("synthetic labels attribute should have been stripped")
	}
}

func TestCopyIndependence(t *testing.T) {
	d := mustParse(t, `<a><b x="1">t</b></a>`)
	cp := d.Copy()
	if cp.XMLString() != d.XMLString() {
		t.Fatal("copy differs")
	}
	cp.FindFirstElement("b").AddLabel("L")
	if d.FindFirstElement("b").HasLabel("L") {
		t.Fatal("copy shares label state with original")
	}
}

func TestChainWideBalanced(t *testing.T) {
	c := ChainDocument(10, "a")
	if s := ComputeStats(c); s.Elements != 10 || s.MaxDepth != 10 {
		t.Errorf("chain stats = %+v", s)
	}
	w := WideDocument(7, "r", "x")
	if s := ComputeStats(w); s.Elements != 8 || s.MaxFanout != 7 {
		t.Errorf("wide stats = %+v", s)
	}
	b := BalancedDocument(3, 2, []string{"a", "b"})
	if s := ComputeStats(b); s.Elements != 15 {
		t.Errorf("balanced stats = %+v", s)
	}
}

func TestStringValueNested(t *testing.T) {
	d := mustParse(t, `<a>x<b>y<c>z</c></b>w</a>`)
	if got := d.Root.StringValue(); got != "xyzw" {
		t.Fatalf("root string-value = %q", got)
	}
}

// The leaf shapes (no children, one text child, one element child) take
// the zero-allocation fast path and share the text node's data; every
// other shape concatenates, with comments excluded.
func TestStringValueFastPath(t *testing.T) {
	d := mustParse(t, `<r><e/><t>leaf</t><w><t>wrapped</t></w><m>x<b>y</b>z</m><c><!--no-->txt</c><k><!--only--></k></r>`)
	want := map[string]string{
		"e": "", "t": "leaf", "w": "wrapped", "m": "xyz", "c": "txt", "k": "",
	}
	for _, el := range d.DocumentElement().Children {
		if got := el.StringValue(); got != want[el.Name] {
			t.Errorf("<%s> string-value = %q, want %q", el.Name, got, want[el.Name])
		}
	}
	if got := d.Root.StringValue(); got != "leafwrappedxyztxt" {
		t.Errorf("root string-value = %q", got)
	}
	leaf := d.DocumentElement().Children[1]
	if got := leaf.StringValue(); unsafe.StringData(got) != unsafe.StringData(leaf.Children[0].Data) {
		t.Error("single-text-child string-value copies the text instead of sharing it")
	}
	for _, el := range d.DocumentElement().Children[:3] {
		if n := testing.AllocsPerRun(10, func() { _ = el.StringValue() }); n != 0 {
			t.Errorf("<%s> StringValue allocates %.0f times, want 0", el.Name, n)
		}
	}
}

// Property: for every pair of nodes in a random document, interval-based
// ancestor testing agrees with parent-chain walking.
func TestPrePostAgreesWithParentChain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		d := RandomDocument(rng, GenConfig{Nodes: 60, MaxFanout: 4, TextProb: 0.2, AttrProb: 0.2})
		chainAnc := func(a, x *Node) bool {
			for p := x.Parent; p != nil; p = p.Parent {
				if p == a {
					return true
				}
			}
			return false
		}
		for _, a := range d.Nodes {
			for _, x := range d.Nodes {
				if a.Type == AttributeNode {
					continue
				}
				if got, want := a.IsAncestorOf(x), chainAnc(a, x); got != want {
					t.Fatalf("IsAncestorOf(%v #%d, %v #%d) = %v, want %v",
						a.Name, a.Ord, x.Name, x.Ord, got, want)
				}
			}
		}
	}
}

// Property: document order is a strict total order consistent with preorder.
func TestDocumentOrderTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := RandomDocument(rng, GenConfig{Nodes: 100, MaxFanout: 5, AttrProb: 0.3})
	for i := 1; i < len(d.Nodes); i++ {
		if CompareOrder(d.Nodes[i-1], d.Nodes[i]) != -1 {
			t.Fatalf("order not strictly increasing at %d", i)
		}
	}
}

// Property (testing/quick): random generation always yields a tree whose
// size statistics are internally consistent.
func TestQuickGeneratorConsistency(t *testing.T) {
	f := func(seed int64, n uint8, fan uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := GenConfig{Nodes: int(n%64) + 1, MaxFanout: int(fan%5) + 1}
		d := RandomDocument(rng, cfg)
		s := ComputeStats(d)
		if s.Elements > cfg.Nodes || s.Elements < 1 {
			return false
		}
		return s.Total == len(d.Nodes) && s.MaxFanout <= maxInt(cfg.MaxFanout, len(d.Root.Children))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestWalkEarlyStop(t *testing.T) {
	d := mustParse(t, `<a><b/><c/><e/></a>`)
	count := 0
	d.Root.Walk(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk visited %d nodes, want 3", count)
	}
}

func TestFindAll(t *testing.T) {
	d := mustParse(t, `<a><b/><b/><c/></a>`)
	bs := d.FindAll(func(n *Node) bool { return n.Type == ElementNode && n.Name == "b" })
	if len(bs) != 2 {
		t.Fatalf("FindAll b = %d", len(bs))
	}
}

func TestDepth(t *testing.T) {
	d := mustParse(t, `<a><b><c/></b></a>`)
	if got := d.FindFirstElement("c").Depth(); got != 3 {
		t.Fatalf("depth(c) = %d, want 3 (root→a→b→c)", got)
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/doc.xml"
	if err := os.WriteFile(path, []byte("<a><b>x</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.FindFirstElement("b") == nil {
		t.Fatal("b not found")
	}
	if _, err := ParseFile(dir + "/missing.xml"); err == nil {
		t.Fatal("missing file should error")
	}
}
