package xpathcomplexity

import (
	"testing"

	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/obs/flight"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/vm"
	"xpathcomplexity/internal/xpath/rewrite"
)

// TestAutoSelectionSinglePath: EngineAuto has one resolution, the
// memoized plan binding. An ad-hoc Query and its prepared Compiled,
// sharing one result cache and one flight recorder, must run the same
// engine, return identical values, and share one cache entry: the first
// evaluation runs the engine, the second hits.
func TestAutoSelectionSinglePath(t *testing.T) {
	type row struct {
		name, doc, query, ctxID string
		nodeless                bool
		// engine pins an explicit engine instead of the plan binding;
		// bound asserts the binding itself.
		engine, bound Engine
	}
	var rows []row
	for _, tc := range enginetest.Cases {
		rows = append(rows, row{name: tc.Name, doc: tc.Doc, query: tc.Query, ctxID: tc.CtxID})
	}
	rows = append(rows,
		// A downward predicate-free path binds to the VM; the streaming
		// NFA serves it only when pinned.
		row{name: "downward-path-vm-bound", doc: "tree", query: "//a/b", bound: EngineVM},
		row{name: "streaming-pinned", doc: "tree", query: "//a/b", engine: EngineStreaming},
		row{name: "nodeless-value", query: "1 + 2", nodeless: true},
		row{name: "nodeless-path", query: "//a", nodeless: true},
	)

	docs := map[string]*Document{}
	engines := map[string]int{}
	for i, r := range rows {
		ctx := Context{}
		if !r.nodeless {
			d := docs[r.doc]
			if d == nil {
				d = enginetest.MustDoc(r.doc)
				docs[r.doc] = d
			}
			ctx = RootContext(d)
			if r.ctxID != "" {
				ctx = At(enginetest.NodeByID(d, r.ctxID))
			}
		}
		cache := NewResultCache(0, 0)
		fr := captureAll(4)
		m := NewMetrics()
		opts := EvalOptions{Engine: r.engine, Cache: cache, Flight: fr, Metrics: m}
		adhoc := func() (Value, error) { return MustCompile(r.query).EvalOptions(ctx, opts) }
		prepared := func() (Value, error) { return MustPrepare(r.query).EvalOptions(ctx, opts) }
		first, second := adhoc, prepared
		if i%2 == 1 {
			first, second = prepared, adhoc
		}
		v1, err1 := first()
		v2, err2 := second()

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s (%s): errors disagree: %v vs %v", r.name, r.query, err1, err2)
		}
		if !r.nodeless && err1 != nil {
			t.Fatalf("%s (%s): %v", r.name, r.query, err1)
		}
		if enginetest.CanonValue(v1) != enginetest.CanonValue(v2) {
			t.Fatalf("%s (%s): values differ: %s vs %s", r.name, r.query,
				enginetest.CanonValue(v1), enginetest.CanonValue(v2))
		}
		recs := fr.Slow()
		if len(recs) != 2 {
			t.Fatalf("%s (%s): %d flight records, want 2", r.name, r.query, len(recs))
		}
		engine := recs[0].Engine
		if recs[1].Engine != engine {
			t.Fatalf("%s (%s): engines differ: %s vs %s", r.name, r.query, engine, recs[1].Engine)
		}
		bound := MustPrepare(r.query).Bound
		if r.bound != EngineAuto && bound != r.bound {
			t.Errorf("%s (%s): plan binds %s, want %s", r.name, r.query, bound, r.bound)
		}
		want := bound
		if r.engine != EngineAuto {
			want = r.engine
		}
		if engine != want.String() {
			t.Errorf("%s (%s): served by %s, want %s", r.name, r.query, engine, want)
		}
		engines[engine]++

		runs, wantCache := int64(1), [2]flight.CacheOutcome{flight.CacheMiss, flight.CacheHit}
		if r.nodeless {
			// No node, no document fingerprint: both evaluations bypass
			// the cache and run the engine.
			runs, wantCache = 2, [2]flight.CacheOutcome{flight.CacheBypassNoNode, flight.CacheBypassNoNode}
		}
		if recs[0].Cache != wantCache[0] || recs[1].Cache != wantCache[1] {
			t.Errorf("%s (%s): cache outcomes %s, %s; want %s, %s", r.name, r.query,
				recs[0].Cache, recs[1].Cache, wantCache[0], wantCache[1])
		}
		if got := m.Snapshot().Counter("engine." + engine + ".evals"); err1 == nil && got != runs {
			t.Errorf("%s (%s): engine.%s.evals = %d, want %d", r.name, r.query, engine, got, runs)
		}
	}
	for _, e := range []string{"streaming", "vm", "cvt"} {
		if engines[e] == 0 {
			t.Errorf("no row bound to %s; engines: %v", e, engines)
		}
	}
}

// TestPreparedPositionalSplitEveryEngine: the VM lowers t[a and p] as
// t[p][a], but the prepared plan keeps the conjunction, so an explicit
// engine on a prepared query still sees the conjunction. nauxpda
// rejects iterated positional predicates; it must evaluate these plans
// and agree with the bound VM, as must every other tree engine.
func TestPreparedPositionalSplitEveryEngine(t *testing.T) {
	d, err := ParseDocumentString(`<site><open_auctions>` +
		`<open_auction id="1"><bidder/><seller/></open_auction>` +
		`<open_auction id="2"><seller/></open_auction>` +
		`<open_auction id="3"><bidder/><bidder/></open_auction>` +
		`<open_auction id="4"/>` +
		`</open_auctions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := RootContext(d)
	for _, query := range []string{
		"//open_auction[bidder and position() = last()]",
		"//open_auction[position() < 3 and seller]",
		"//open_auctions[not(open_auction[bidder and position() = 2])]",
	} {
		c := MustPrepare(query)
		if c.Bound != EngineVM {
			t.Fatalf("%s: bound %s, want vm", query, c.Bound)
		}
		split, changed := rewrite.SplitPositionalConjunctions(c.planQuery.Expr)
		if !changed {
			t.Fatalf("%s: the split leaked into the shared plan %s", query, c.planQuery.Expr.String())
		}
		prog, _ := c.VMProgram()
		want, err := vm.Compile(split)
		if err != nil {
			t.Fatalf("%s: split form does not compile: %v", query, err)
		}
		if prog.Disassemble() != want.Disassemble() {
			t.Fatalf("%s: VM program is not the split lowering:\n%s\nwant\n%s", query, prog.Disassemble(), want.Disassemble())
		}
		auto, err := c.Eval(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Engine{EngineNaive, EngineCVT, EngineCoreLinear, EngineNAuxPDA} {
			v, err := c.EvalOptions(ctx, EvalOptions{Engine: e, NegationBound: 8})
			if err != nil {
				t.Fatalf("%s: prepared plan on %s: %v", query, e, err)
			}
			if !value.Equal(v, auto) {
				t.Fatalf("%s: %s = %s, vm = %s", query, e, canonValue(v), canonValue(auto))
			}
		}
	}
}
