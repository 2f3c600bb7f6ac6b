package vm

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"xpathcomplexity/internal/eval/corelinear"
	"xpathcomplexity/internal/eval/cvt"
	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/parser"
)

func engine(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	prog, err := Compile(expr)
	if err != nil {
		return nil, err
	}
	return prog.Run(ctx, RunOptions{})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, engine, enginetest.CoreCaps)
}

func TestCachedEquivalence(t *testing.T) {
	enginetest.RunCachedEquivalence(t, "vm", engine, enginetest.CoreCaps, enginetest.GenCore)
}

func TestConformanceColumnarBackend(t *testing.T) {
	enginetest.RunBackend(t, engine, enginetest.CoreCaps, xmltree.BackendColumnar)
}

func TestBackendEquivalence(t *testing.T) {
	enginetest.RunBackendEquivalence(t, "vm", engine, enginetest.CoreCaps, enginetest.GenCore)
}

// corpusQueries exercises every opcode: fused and unfused steps, both
// init forms, backward chains with hoisted predicate conditions, the
// boolean connectives, label tests, unions, absolute conditions, and
// the positional counting forms (fused OpStepPos, slot-form OpCondPos
// with and without base chains, singleton folds, constant folds).
var corpusQueries = []string{
	"/descendant::a/child::b",
	"//a//b//c",
	"//a[b]/c",
	"//a[b and not(c)]",
	"a[not(b or c)]/d",
	"a | b[c] | //d",
	"//*[T(G) and T(R)]",
	"a[boolean(b)]",
	"a[true() or false()]",
	"a[/b]",
	"//a[.//b[c]]",
	"//a[b][c][not(d)]",
	"b and not(c)",
	"not(//a[b/following-sibling::c])",
	"//a/ancestor::b[parent::c]",
	"//a/following::b",
	"preceding-sibling::a/child::b",
	"//*[@x]/attribute::y",
	"self::a/descendant-or-self::b",
	"//a[descendant::b and ancestor::c]",
	// Positional predicates (the counting fragment).
	"//a[2]",
	"//a[last()]/b",
	"//b[position() < 3]",
	"//a[b][2]",
	"//a[b][position() = last()]",
	"//a[position() > 1][1]",
	"//a[position() = 1 or position() = last()]",
	"//a[not(position() = 1)]",
	"//*[@x][1]",
	"//a/@*[2]",
	"//a[.//b[2]]",
	"self::a[1]/descendant::b",
	"//c/parent::a[1]",
	"//a[3 < 4]/b",
	"//a[0]",
	"//a[b][c][2]",
}

// valueQueries exercise the opcodes outside corelinear's fragment —
// literal comparisons (OpCondCmp: string and number literals, every
// operator, the literal on either side, attribute and nested paths,
// absolute paths, positional last steps, NaN string-values) and the
// count()/sum() return opcodes — so their reference is cvt.
var valueQueries = []string{
	"//p[q = 5]",
	"//p[q > 4]/@n",
	"//p[q != 5]",
	"//p[5 = q]",
	"//p[4 < q]",
	"//p[q = 'x']",
	"//p[q != 'x']",
	"//p[q < '6']",
	"//p[@n >= 3]",
	"//p[@n = '7']",
	"//*[. = '5']",
	"//p[q[2] = 'x']",
	"//p[q[. = 5] and @n]",
	"//p[not(q > 2)]",
	"//p[.//q = 10]",
	"//p[q = 'x' or q = 5]",
	"//s[. > 0]",
	"//s[. = 'NaN']",
	"//s[. != 1000]",
	"//p[q >= -1]",
	"//p[q = 10 - 5]",
	"//p[/r/s = -1]",
	"//p[q = 5][q = 'x']",
	"//p[q = 5]/q[. = 5]",
	"//p[q = 'a;b']",
	"//p[q != 'x y']",
	"//p[q = '50']",
	"//p[q = 5 or true()]",
	"//p[q = 5][2]",
	"//p[q[. > 0][1] = 5]",
	"q = 5",
	"p/q = 'x'",
	"count(//q)",
	"count(//p[q > 4])",
	"count(//p | //s)",
	"count(//nothing)",
	"sum(//q)",
	"sum(//p/@n)",
	"sum(//s)",
	"sum(//nothing)",
	"sum(//p[@n]/q[. > 0])",
}

// valueDoc carries numeric, fractional, padded, non-number and empty
// string-values on elements and attributes.
const valueDoc = `<r><p n="3"><q>5</q><q>x</q></p><p n="7"><q> 10 </q><q>2.5</q></p>` +
	`<p><q/><q>a;b</q></p><s>-1</s><s>1e3</s><s>1000</s><p n="x"><q>5<b>0</b></q></p></r>`

// TestValueOpcodesAgreeWithCVT proves the comparison and aggregate
// opcodes compute what cvt computes — fused, unfused, unpooled and
// unoptimized, indexed and cold, from the root and an inner context —
// and that both storage backends agree.
func TestValueOpcodesAgreeWithCVT(t *testing.T) {
	vd, err := xmltree.ParseString(valueDoc)
	if err != nil {
		t.Fatal(err)
	}
	docs := append(corpusDocs(t), vd, xmltree.Compact(vd))
	for _, d := range docs {
		for _, q := range valueQueries {
			expr := parser.MustParse(q)
			for _, ctx := range []evalctx.Context{evalctx.Root(d), evalctx.At(d.Nodes[len(d.Nodes)/2])} {
				want, err := cvt.Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("cvt %q: %v", q, err)
				}
				for _, opts := range []Options{{}, {DisableFusion: true}, {DisableConstDedup: true}, {DisablePeephole: true}} {
					prog, err := CompileWith(expr, opts)
					if err != nil {
						t.Fatalf("compile %q (%+v): %v", q, opts, err)
					}
					for _, disableIdx := range []bool{false, true} {
						got, err := prog.Run(ctx, RunOptions{DisableIndex: disableIdx})
						if err != nil {
							t.Fatalf("vm %q (%+v, noindex=%v): %v", q, opts, disableIdx, err)
						}
						if enginetest.CanonValue(want) != enginetest.CanonValue(got) {
							t.Fatalf("disagreement on %q (%+v, noindex=%v) from #%d:\n cvt: %v\n vm:  %v",
								q, opts, disableIdx, ctx.Node.Ord, want, got)
						}
					}
				}
			}
		}
	}
}

// TestValueOpcodeCharges pins the charge model of the new opcodes: a
// literal comparison costs one condition node on top of its path, and
// count()/sum() one function node on top of their argument.
func TestValueOpcodeCharges(t *testing.T) {
	d, err := xmltree.ParseString(valueDoc)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(q string) int64 {
		prog, err := Compile(parser.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		ctr := &evalctx.Counter{}
		if _, err := prog.Run(evalctx.Root(d), RunOptions{Counter: ctr}); err != nil {
			t.Fatal(err)
		}
		return ctr.Ops() / int64(len(d.Nodes))
	}
	for _, tc := range []struct{ q, base string }{
		{"//p[q = 5]", "//p[q]"},
		{"//p[5 > q]", "//p[q]"},
		{"count(//p[q])", "//p[q]"},
		{"sum(//q)", "//q"},
	} {
		if got, base := ops(tc.q), ops(tc.base); got != base+1 {
			t.Errorf("%s charges %d units, want %s's %d + 1", tc.q, got, tc.base, base)
		}
	}
}

// TestCmpPoolDedup: equal literal comparisons share one pool entry, and
// every mirrored form states the path on the left.
func TestCmpPoolDedup(t *testing.T) {
	prog, err := Compile(parser.MustParse("//p[q = 5]/q[. = 5][5 = .][. = '5']"))
	if err != nil {
		t.Fatal(err)
	}
	want := []value.LiteralCmp{
		{Op: ast.OpEq, IsNum: true, Num: 5},
		{Op: ast.OpEq, Str: "5"},
	}
	if !reflect.DeepEqual(prog.Cmps, want) {
		t.Fatalf("cmp pool = %+v, want %+v", prog.Cmps, want)
	}
	mirrored, err := Compile(parser.MustParse("//p[3 < q][3 >= q]"))
	if err != nil {
		t.Fatal(err)
	}
	want = []value.LiteralCmp{
		{Op: ast.OpGt, IsNum: true, Num: 3},
		{Op: ast.OpLe, IsNum: true, Num: 3},
	}
	if !reflect.DeepEqual(mirrored.Cmps, want) {
		t.Fatalf("mirrored cmp pool = %+v, want %+v", mirrored.Cmps, want)
	}
}

// TestAssembleCmpDirective: the cmp pool directive takes any
// whitespace between its fields and keeps the literal verbatim, spaces
// and comment characters included; a malformed one is an error.
func TestAssembleCmpDirective(t *testing.T) {
	p, err := Assemble("vm bytecode v1\ncmp 0\t<=\t\"a ;b\" ; comment\ncmp  1  !=  -2.5\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []value.LiteralCmp{{Op: ast.OpLe, Str: "a ;b"}, {Op: ast.OpNeq, IsNum: true, Num: -2.5}}
	if !reflect.DeepEqual(p.Cmps, want) {
		t.Fatalf("cmp pool = %+v, want %+v", p.Cmps, want)
	}
	for _, bad := range []string{"cmp 0 =", "cmp 0 ~ 1", "cmp 0 = x", "cmp 1 = 1", `cmp 0 = "open`} {
		if _, err := Assemble("vm bytecode v1\n" + bad + "\n"); err == nil {
			t.Errorf("Assemble(%q) succeeded, want an error", bad)
		}
	}
}

// allQueries is every compiled corpus: the corelinear-checked queries
// and the value queries.
func allQueries() []string {
	return append(append([]string(nil), corpusQueries...), valueQueries...)
}

func corpusDocs(t *testing.T) []*xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	docs := []*xmltree.Document{
		xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 60, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"}, TextProb: 0.2, AttrProb: 0.3,
		}),
		xmltree.BalancedDocument(4, 3, []string{"a", "b", "c"}),
	}
	d, err := xmltree.ParseString(`<a x="1"><b y="2"><c/><d/></b><b/><c><a><b/></a></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	return append(docs, d)
}

// TestAgreementWithCorelinear proves the VM computes exactly what the
// corelinear evaluator computes — fused, unfused, indexed and cold — and
// charges exactly the same number of operation units (the queries are
// tree-shaped, so corelinear's identity memo and the compile-time slot
// CSE key identically).
func TestAgreementWithCorelinear(t *testing.T) {
	for _, d := range corpusDocs(t) {
		for _, q := range corpusQueries {
			expr := parser.MustParse(q)
			ctxs := []evalctx.Context{evalctx.Root(d), evalctx.At(d.Nodes[len(d.Nodes)/2])}
			for _, ctx := range ctxs {
				refCtr := &evalctx.Counter{}
				want, err := corelinear.Evaluate(expr, ctx, refCtr)
				if err != nil {
					t.Fatalf("corelinear %q: %v", q, err)
				}
				for _, opts := range []Options{{}, {DisableFusion: true}, {DisableConstDedup: true}, {DisablePeephole: true}, {DisableFusion: true, DisablePeephole: true}} {
					prog, err := CompileWith(expr, opts)
					if err != nil {
						t.Fatalf("compile %q (%+v): %v", q, opts, err)
					}
					for _, disableIdx := range []bool{false, true} {
						ctr := &evalctx.Counter{}
						got, err := prog.Run(ctx, RunOptions{Counter: ctr, DisableIndex: disableIdx})
						if err != nil {
							t.Fatalf("vm %q (%+v, noindex=%v): %v", q, opts, disableIdx, err)
						}
						if !value.Equal(want, got) {
							t.Fatalf("disagreement on %q (%+v, noindex=%v) from #%d:\n corelinear: %v\n vm:         %v",
								q, opts, disableIdx, ctx.Node.Ord, want, got)
						}
						if ctr.Ops() != refCtr.Ops() {
							t.Fatalf("op-count divergence on %q (%+v, noindex=%v): corelinear %d, vm %d",
								q, opts, disableIdx, refCtr.Ops(), ctr.Ops())
						}
					}
				}
			}
		}
	}
}

// TestAgreementRandom fuzzes the fused/unfused agreement over random
// documents and generated Core queries.
func TestAgreementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, profile := range []enginetest.GenProfile{enginetest.GenPF, enginetest.GenPositiveCore, enginetest.GenCore} {
		gen := enginetest.NewQueryGen(rng, profile)
		for trial := 0; trial < 150; trial++ {
			doc := xmltree.RandomDocument(rng, xmltree.GenConfig{
				Nodes: 30, MaxFanout: 3, Tags: []string{"a", "b", "c"}, TextProb: 0.2, AttrProb: 0.2,
			})
			q := gen.Query()
			expr := parser.MustParse(q)
			prog, err := Compile(expr)
			if err != nil {
				t.Fatalf("compile %q: %v", q, err)
			}
			unfused, err := CompileWith(expr, Options{DisableFusion: true})
			if err != nil {
				t.Fatalf("compile unfused %q: %v", q, err)
			}
			for _, ctxNode := range []*xmltree.Node{doc.Root, doc.Nodes[len(doc.Nodes)-1]} {
				ctx := evalctx.At(ctxNode)
				want, err := corelinear.Evaluate(expr, ctx, nil)
				if err != nil {
					t.Fatalf("corelinear %q: %v", q, err)
				}
				for _, p := range []*Program{prog, unfused} {
					got, err := p.Run(ctx, RunOptions{})
					if err != nil {
						t.Fatalf("vm %q: %v", q, err)
					}
					if !value.Equal(want, got) {
						t.Fatalf("disagreement on %q from #%d:\n corelinear: %v\n vm:         %v\n doc: %s",
							q, ctxNode.Ord, want, got, doc.XMLString())
					}
				}
			}
		}
	}
}

func TestRejectsNonVM(t *testing.T) {
	for _, tc := range []struct {
		q      string
		reason string
	}{
		{"string(a)", "function"},
		{"count(1)", "function"},
		{"a[b = c]", "comparison"},
		{"a[b = true()]", "comparison"},
		{"a[b + 1 = 2]", "comparison"},
		{"a[count(b) > 1]", "comparison"},
		{"a[b = 0 div 0]", "comparison"},
		{"1 + 2", "operator"},
		{"'lit'", "expr-type"},
		{"ancestor::a[2]", "positional-axis"},
		{"//a/following-sibling::b[1]", "positional-axis"},
		{"position() = 1", "positional-context"},
		{"a[position() + 1 = last()]", "positional-shape"},
		{"a[b * 2]", "operator"},
	} {
		_, err := Compile(parser.MustParse(tc.q))
		if !errors.Is(err, ErrNotVM) {
			t.Errorf("Compile(%q) = %v, want ErrNotVM", tc.q, err)
			continue
		}
		if got := Reason(err); got != tc.reason {
			t.Errorf("Reason(Compile(%q)) = %q, want %q", tc.q, got, tc.reason)
		}
	}
	// Formerly-rejected positional, comparison and aggregate queries now
	// compile.
	for _, q := range []string{"a[1]", "a[position() = 1]", "//a[last()]", "a[b = 'x']", "a['x' != b]",
		"a[b > 1]", "count(a)", "sum(a | b)"} {
		if _, err := Compile(parser.MustParse(q)); err != nil {
			t.Errorf("Compile(%q) = %v, want nil", q, err)
		}
	}
	// A top-level union with a non-path operand cannot be parsed, but
	// synthetic ASTs (reductions) can build one; the VM must reject it
	// cleanly where corelinear's materializing union would panic.
	mixed := &ast.Binary{
		Op:   ast.OpUnion,
		Left: parser.MustParse("a"),
		Right: &ast.Binary{
			Op:    ast.OpAnd,
			Left:  parser.MustParse("b"),
			Right: parser.MustParse("c"),
		},
	}
	if _, err := Compile(mixed); !errors.Is(err, ErrNotVM) {
		t.Errorf("Compile(a | (b and c)) = %v, want ErrNotVM", err)
	}
}

// TestDisableFusionHook proves the package-level hook removes every
// superinstruction from the emitted code.
func TestDisableFusionHook(t *testing.T) {
	DisableFusion = true
	defer func() { DisableFusion = false }()
	prog, err := Compile(parser.MustParse("//a[b]/c[not(d)][e]"))
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range prog.Code {
		switch in.Op {
		case OpStep, OpStepCond, OpInvStep, OpInvStepCond:
			t.Fatalf("instruction %d is fused opcode %s with DisableFusion set:\n%s", i, in.Op, prog.Disassemble())
		}
	}
}

// TestDisasmRoundTrip: disassemble→reassemble reproduces the identical
// Program, pool layout and operand flags included, for every corpus
// query in every compile configuration.
func TestDisasmRoundTrip(t *testing.T) {
	for _, q := range allQueries() {
		expr := parser.MustParse(q)
		for _, opts := range []Options{{}, {DisableFusion: true}, {DisableConstDedup: true}, {DisablePeephole: true}} {
			prog, err := CompileWith(expr, opts)
			if err != nil {
				t.Fatalf("compile %q: %v", q, err)
			}
			asm := prog.Disassemble()
			back, err := Assemble(asm)
			if err != nil {
				t.Fatalf("assemble %q: %v\n%s", q, err, asm)
			}
			if !reflect.DeepEqual(prog, back) {
				t.Fatalf("round-trip mismatch for %q (%+v):\n%s\nreassembled:\n%s", q, opts, asm, back.Disassemble())
			}
		}
	}
}

// TestPeepholeMetamorphic: the peephole optimizer may only change the
// encoding — results and operation charges must be identical with the
// pass disabled, on every corpus query, fused and unfused.
func TestPeepholeMetamorphic(t *testing.T) {
	docs := corpusDocs(t)
	shrunk := 0
	for _, q := range allQueries() {
		expr := parser.MustParse(q)
		for _, base := range []Options{{}, {DisableFusion: true}} {
			off := base
			off.DisablePeephole = true
			opt, err := CompileWith(expr, base)
			if err != nil {
				t.Fatalf("compile %q: %v", q, err)
			}
			ref, err := CompileWith(expr, off)
			if err != nil {
				t.Fatalf("compile %q peephole-off: %v", q, err)
			}
			if len(opt.Code) > len(ref.Code) {
				t.Fatalf("%q: peephole grew the program %d → %d:\n%s", q, len(ref.Code), len(opt.Code), opt.Disassemble())
			}
			if len(opt.Code) < len(ref.Code) {
				shrunk++
			}
			if ref.PreCharge != 0 {
				t.Fatalf("%q: unoptimized program has PreCharge %d", q, ref.PreCharge)
			}
			for _, d := range docs {
				for _, ctx := range []evalctx.Context{evalctx.Root(d), evalctx.At(d.Nodes[len(d.Nodes)/2])} {
					actr := &evalctx.Counter{}
					a, err := opt.Run(ctx, RunOptions{Counter: actr})
					if err != nil {
						t.Fatalf("%q optimized: %v", q, err)
					}
					bctr := &evalctx.Counter{}
					b, err := ref.Run(ctx, RunOptions{Counter: bctr})
					if err != nil {
						t.Fatalf("%q peephole-off: %v", q, err)
					}
					if !value.Equal(a, b) {
						t.Fatalf("%q: peephole changed the result:\n optimized: %v\n reference: %v\n%s", q, a, b, opt.Disassemble())
					}
					if actr.Ops() != bctr.Ops() {
						t.Fatalf("%q: peephole changed the op charges: optimized %d, reference %d\n%s",
							q, actr.Ops(), bctr.Ops(), opt.Disassemble())
					}
				}
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("peephole never shrank a corpus program; add a foldable query")
	}
}

// TestPeepholeFoldsConstants pins concrete expectations on the pass: a
// constant condition disappears into PreCharge, and the folded program
// still charges like the reference evaluator.
func TestPeepholeFoldsConstants(t *testing.T) {
	prog, err := Compile(parser.MustParse("a[true() or false()]/b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range prog.Code {
		switch in.Op {
		case OpOr, OpCondFalse, OpStepCond, OpFilterF:
			t.Fatalf("constant condition survived the peephole:\n%s", prog.Disassemble())
		}
	}
	if prog.PreCharge == 0 {
		t.Fatalf("folded charges not preserved in PreCharge:\n%s", prog.Disassemble())
	}
	// A constant-false condition turns the whole filter into an
	// always-empty intersection, but charges are still parity-exact.
	prog2, err := Compile(parser.MustParse("//a[false()]"))
	if err != nil {
		t.Fatal(err)
	}
	d := xmltree.BalancedDocument(3, 2, []string{"a", "b"})
	ctr := &evalctx.Counter{}
	v, err := prog2.Run(evalctx.Root(d), RunOptions{Counter: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if ns, ok := v.(value.NodeSet); !ok || len(ns) != 0 {
		t.Fatalf("//a[false()] = %v, want empty node-set", v)
	}
	ref := &evalctx.Counter{}
	if _, err := corelinear.Evaluate(parser.MustParse("//a[false()]"), evalctx.Root(d), ref); err != nil {
		t.Fatal(err)
	}
	if ctr.Ops() != ref.Ops() {
		t.Fatalf("op divergence on //a[false()]: vm %d, corelinear %d", ctr.Ops(), ref.Ops())
	}
}

// TestConstDedupMetamorphic: disabling constant-pool deduplication
// changes the pool layout but never the evaluation result.
func TestConstDedupMetamorphic(t *testing.T) {
	docs := corpusDocs(t)
	dedupWins := 0
	for _, q := range allQueries() {
		expr := parser.MustParse(q)
		shared, err := Compile(expr)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileWith(expr, Options{DisableConstDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Tests) < len(shared.Tests) || len(fresh.Labels) < len(shared.Labels) || len(fresh.Cmps) < len(shared.Cmps) {
			t.Fatalf("%q: dedup-disabled pools smaller than deduped (%d/%d tests, %d/%d labels, %d/%d cmps)",
				q, len(fresh.Tests), len(shared.Tests), len(fresh.Labels), len(shared.Labels), len(fresh.Cmps), len(shared.Cmps))
		}
		if len(fresh.Tests) > len(shared.Tests) {
			dedupWins++
		}
		for _, d := range docs {
			ctx := evalctx.Root(d)
			a, err := shared.Run(ctx, RunOptions{})
			if err != nil {
				t.Fatalf("%q deduped: %v", q, err)
			}
			b, err := fresh.Run(ctx, RunOptions{})
			if err != nil {
				t.Fatalf("%q dedup-disabled: %v", q, err)
			}
			if !value.Equal(a, b) {
				t.Fatalf("%q: pool layout changed the result:\n deduped: %v\n fresh:   %v", q, a, b)
			}
		}
	}
	if dedupWins == 0 {
		t.Fatal("corpus never exercised constant-pool sharing; add a query with repeated tests")
	}
}

// TestBudgetNoPartialResult: a one-unit op budget stops the VM with the
// typed budget error and a nil value — never a partial node-set.
func TestBudgetNoPartialResult(t *testing.T) {
	d := xmltree.BalancedDocument(4, 3, []string{"a", "b", "c"})
	for _, q := range allQueries() {
		prog, err := Compile(parser.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		g := evalctx.NewGuard(nil, evalctx.Limits{MaxOps: 1})
		v, err := prog.Run(evalctx.Root(d), RunOptions{Guard: g})
		var be *evalctx.BudgetError
		if !errors.As(err, &be) || be.Limit != "ops" {
			t.Fatalf("%q: err = %v, want *BudgetError{Limit: \"ops\"}", q, err)
		}
		if v != nil {
			t.Fatalf("%q: got partial result %v alongside budget error", q, v)
		}
		ctr := &evalctx.Counter{Budget: 1}
		v, err = prog.Run(evalctx.Root(d), RunOptions{Counter: ctr})
		if !errors.Is(err, evalctx.ErrBudget) {
			t.Fatalf("%q: counter err = %v, want ErrBudget", q, err)
		}
		if v != nil {
			t.Fatalf("%q: got partial result %v alongside counter budget error", q, v)
		}
	}
}
