package vm

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"xpathcomplexity/internal/eval/corelinear"
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
		{"count(a)", "function"},
		{"a[b = 'x']", "positional-shape"},
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
	// Formerly-rejected positional queries now compile.
	for _, q := range []string{"a[1]", "a[position() = 1]", "//a[last()]"} {
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
	for _, q := range corpusQueries {
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
	for _, q := range corpusQueries {
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
	for _, q := range corpusQueries {
		expr := parser.MustParse(q)
		shared, err := Compile(expr)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileWith(expr, Options{DisableConstDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Tests) < len(shared.Tests) || len(fresh.Labels) < len(shared.Labels) {
			t.Fatalf("%q: dedup-disabled pools smaller than deduped (%d/%d tests, %d/%d labels)",
				q, len(fresh.Tests), len(shared.Tests), len(fresh.Labels), len(shared.Labels))
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
	for _, q := range corpusQueries {
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
