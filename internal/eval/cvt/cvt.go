// Package cvt implements the context-value-table evaluator of
// Gottlob/Koch/Pichler — the dynamic-programming algorithm behind
// Proposition 2.7 ("XPath query evaluation is in P with respect to combined
// complexity") and Theorems 7.2/7.3 of the paper.
//
// The idea of [VLDB'02]: for every node of the query tree, compute a
// context-value table relating evaluation contexts to result values, so
// that no (subexpression, context) pair is ever evaluated twice. This
// implementation realizes the table as a memo map filled on demand, which
// computes exactly the "meaningful contexts" subset of the full table —
// the time- and space-improvement direction of [ICDE'03].
//
// Two further properties matter for the paper's bounds:
//
//   - intermediate location-step results are node *sets* (normalized after
//     every step), never bags, bounding them by |D|;
//   - subexpressions that cannot observe position()/last() are keyed by
//     context node alone (location paths re-bind position and size, so a
//     path is always keyed by node only). The Options.DisableAdaptiveKeys
//     switch turns this off for the ablation benchmark
//     (BenchmarkAblation_CVTContextKeying).
package cvt

import (
	"fmt"
	"slices"
	"sync"

	"xpathcomplexity/internal/axes"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/funcs"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// Options configure an evaluation.
type Options struct {
	// Counter counts elementary operations; may be nil.
	Counter *evalctx.Counter
	// DisableAdaptiveKeys keys every memo entry by the full
	// (node, position, size) triple even for position-insensitive
	// subexpressions. Used by the ablation benchmark.
	DisableAdaptiveKeys bool
	// DisableMemo turns the memo off entirely, recovering naive
	// set-semantics recursion; used by tests demonstrating that the
	// polynomial bound comes from the table, not from set semantics alone.
	DisableMemo bool
	// DisableIndex evaluates without the per-document index: every
	// location step selects by walking the tree (the seed behaviour).
	// Kept for benchmarks and the differential suite's cold reference.
	DisableIndex bool
	// Tracer, when non-nil, receives enter/exit events for every
	// (subexpression, context) visit, memo hits included.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives engine.cvt.* and cvt.* totals:
	// operation counts, memo hits/misses and the per-evaluation
	// context-value-table size distribution (rows × subexpressions).
	Metrics *obs.Metrics
	// EagerTables precomputes, bottom-up over the query tree, the full
	// context-value table of every position-insensitive subexpression for
	// every document node before answering the query — the original
	// [VLDB'02] algorithm that Proposition 2.7 cites. The default lazy
	// mode fills only the "meaningful contexts" reached from the actual
	// query context, which is the [ICDE'03] time/space improvement the
	// paper's introduction describes. Results are identical; the ablation
	// benchmark measures the difference.
	EagerTables bool
	// Guard, when non-nil, enforces cancellation, the op budget, the
	// recursion-depth limit and the node-set cardinality limit. It is
	// charged in lockstep with Counter, so its MaxOps uses the same units
	// as Counter.Budget.
	Guard *evalctx.Guard
}

// Evaluate evaluates expr in ctx with the default options.
func Evaluate(expr ast.Expr, ctx evalctx.Context, ctr *evalctx.Counter) (value.Value, error) {
	return EvaluateOptions(expr, ctx, Options{Counter: ctr})
}

// EvaluateOptions evaluates expr in ctx with explicit options.
func EvaluateOptions(expr ast.Expr, ctx evalctx.Context, opts Options) (value.Value, error) {
	v, _, err := EvaluateWithStats(expr, ctx, opts)
	return v, err
}

// fillTables materializes the context-value table of every
// position-insensitive subexpression over the whole document, bottom-up
// (children first, which the recursive eval guarantees anyway via the
// memo). Position-sensitive subexpressions have no node-only table and
// stay lazy: their meaningful (pos, size) pairs only arise inside
// concrete selections.
func (e *evaluator) fillTables(expr ast.Expr, doc *xmltree.Document) error {
	var subs []ast.Expr
	seen := make(map[ast.Expr]bool)
	var collect func(x ast.Expr)
	collect = func(x ast.Expr) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		switch y := x.(type) {
		case *ast.Path:
			for _, s := range y.Steps {
				for _, p := range s.Preds {
					collect(p)
				}
			}
		case *ast.Binary:
			collect(y.Left)
			collect(y.Right)
		case *ast.Unary:
			collect(y.Operand)
		case *ast.Call:
			for _, a := range y.Args {
				collect(a)
			}
		}
		subs = append(subs, x) // post-order: children before parents
	}
	collect(expr)
	for _, sub := range subs {
		if e.sensitive[sub] {
			continue
		}
		for _, n := range doc.Nodes {
			if _, err := e.eval(sub, evalctx.Context{Node: n, Pos: 1, Size: 1}); err != nil {
				return err
			}
		}
	}
	return nil
}

// TableStats reports the size of the context-value tables built during an
// evaluation; exposed for the space-complexity experiments (EXP-T72).
type TableStats struct {
	// Tables is the number of distinct subexpressions with a table.
	Tables int
	// Entries is the total number of (context, value) rows.
	Entries int
}

// EvaluateWithStats is Evaluate plus the table statistics of the run.
func EvaluateWithStats(expr ast.Expr, ctx evalctx.Context, opts Options) (value.Value, TableStats, error) {
	if opts.Counter == nil && (opts.Metrics != nil || opts.Tracer != nil) {
		// Instrumentation needs a counter to measure op deltas; synthesize
		// a private one so metrics reconcile even without a caller counter.
		opts.Counter = new(evalctx.Counter)
	}
	e := evaluatorPool.Get().(*evaluator)
	e.opts = opts
	markSensitive(expr, e.sensitive)
	startOps := opts.Counter.Ops()
	var v value.Value
	var err error
	if opts.EagerTables && ctx.Node != nil {
		err = e.fillTables(expr, ctx.Node.Document())
	}
	if err == nil {
		v, err = e.eval(expr, ctx)
	}
	st := TableStats{Tables: len(e.tables)}
	for _, tbl := range e.tables {
		st.Entries += len(tbl)
	}
	if m := opts.Metrics; m != nil {
		m.Counter("engine.cvt.ops").Add(opts.Counter.Ops() - startOps)
		m.Counter("engine.cvt.evals").Inc()
		m.Counter("cvt.memo.hits").Add(e.memoHits)
		m.Counter("cvt.memo.misses").Add(e.memoMisses)
		m.Histogram("cvt.table.subexprs").Observe(int64(st.Tables))
		m.Histogram("cvt.table.rows").Observe(int64(st.Entries))
	}
	obs.RecordScratch(opts.Metrics, e.scratchHits, e.scratchMisses)
	// Node-set results live in the evaluation's slab, which release()
	// recycles; copy the one value that escapes to the caller.
	if ns, ok := v.(value.NodeSet); ok && len(ns) > 0 {
		v = value.NodeSetFromOrdered(append(make([]*xmltree.Node, 0, len(ns)), ns...))
	}
	e.release()
	if err != nil {
		return nil, st, err
	}
	return v, st, nil
}

// ctxKey identifies a context in a context-value table. For
// position-insensitive expressions pos and size are zeroed, collapsing all
// contexts over the same node into one row.
type ctxKey struct {
	node *xmltree.Node
	pos  int
	size int
}

type evaluator struct {
	opts      Options
	idx       *xmltree.Index // lazily fetched; nil when disabled or unset
	marks     []bool         // document-sized scratch for normalizeFrontier
	sensitive map[ast.Expr]bool
	tables    map[ast.Expr]map[ctxKey]value.Value
	// memoHits and memoMisses are accumulated privately (one evaluation is
	// single-goroutine) and flushed to Options.Metrics at the end.
	memoHits   int64
	memoMisses int64

	// Pooled scratch, retained across evaluations via evaluatorPool.
	// tableFree recycles cleared inner memo maps; bufFree recycles the
	// frontier/collection/predicate node buffers of evalPath; slab holds
	// the carved node-set rows that memo values alias (reset wholesale on
	// release). scratchHits/scratchMisses feed eval.scratch.{hit,miss}.
	tableFree     []map[ctxKey]value.Value
	bufFree       [][]*xmltree.Node
	slab          []*xmltree.Node
	scratchHits   int64
	scratchMisses int64
	// start is the one-node initial frontier of evalPath, hoisted onto
	// the evaluator because a stack array passed as a slice escapes (one
	// heap allocation per predicate evaluation). Reuse across the nested
	// evalPath calls of predicate recursion is safe: the initial frontier
	// has exactly one element, which runSteps reads before any predicate
	// can recurse, and later frontiers live in the b0/b1 buffers.
	start [1]*xmltree.Node
}

// evaluatorPool recycles evaluators — and, through them, their memo maps,
// node buffers and result slabs — across evaluations. EvalBatch workers
// each Get their own instance, so no state is shared concurrently.
var evaluatorPool = sync.Pool{New: func() any {
	return &evaluator{
		sensitive: make(map[ast.Expr]bool),
		tables:    make(map[ast.Expr]map[ctxKey]value.Value),
	}
}}

// release clears all per-evaluation state and returns the evaluator to the
// pool. Inner memo maps are cleared and kept on tableFree (clearing a map
// retains its buckets, so the next evaluation of the same query inserts
// without rehashing); the slab and node buffers keep their capacity but
// drop their node pointers so a pooled evaluator never pins a document.
func (e *evaluator) release() {
	for expr, tbl := range e.tables {
		clear(tbl)
		e.tableFree = append(e.tableFree, tbl)
		delete(e.tables, expr)
	}
	clear(e.sensitive)
	if e.opts.Tracer != nil {
		// Trace sinks may retain the values they were shown, and node-set
		// values alias the slab; hand it to the GC instead of recycling.
		e.slab = nil
	} else {
		e.slab = e.slab[:0]
		clear(e.slab[:cap(e.slab)])
	}
	e.opts = Options{}
	e.idx = nil
	e.start[0] = nil // don't pin the last document from the pool
	e.memoHits, e.memoMisses = 0, 0
	e.scratchHits, e.scratchMisses = 0, 0
	evaluatorPool.Put(e)
}

// getBuf hands out a recycled node buffer (empty, arbitrary capacity).
func (e *evaluator) getBuf() []*xmltree.Node {
	if n := len(e.bufFree); n > 0 {
		b := e.bufFree[n-1]
		e.bufFree = e.bufFree[:n-1]
		e.scratchHits++
		return b[:0]
	}
	e.scratchMisses++
	return make([]*xmltree.Node, 0, 64)
}

// putBuf returns a buffer obtained from getBuf (possibly regrown). The
// contents are dropped so pooled buffers never pin document nodes.
func (e *evaluator) putBuf(b []*xmltree.Node) {
	b = b[:cap(b)]
	clear(b)
	e.bufFree = append(e.bufFree, b[:0])
}

// getTable hands out an empty memo map, recycled when possible.
func (e *evaluator) getTable() map[ctxKey]value.Value {
	if n := len(e.tableFree); n > 0 {
		t := e.tableFree[n-1]
		e.tableFree = e.tableFree[:n-1]
		e.scratchHits++
		return t
	}
	e.scratchMisses++
	return make(map[ctxKey]value.Value)
}

// carve copies nodes into the evaluation's result slab and returns the row
// as a node-set. Rows are immutable and stable for the lifetime of the
// evaluation (memo values alias them); the slab is recycled on release,
// which is why EvaluateWithStats copies the final result out first.
func (e *evaluator) carve(nodes []*xmltree.Node) value.NodeSet {
	if len(e.slab)+len(nodes) > cap(e.slab) {
		// A full slab stays alive through the rows already carved from it;
		// only the current one is recycled on release.
		c := 1024
		for c < len(nodes) {
			c <<= 1
		}
		e.slab = make([]*xmltree.Node, 0, c)
	}
	off := len(e.slab)
	e.slab = append(e.slab, nodes...)
	return value.NodeSet(e.slab[off:len(e.slab):len(e.slab)])
}

// emptyNodeSet is the shared boxed empty result: empty frontiers are
// common enough that re-boxing one per (path, context) row shows up in
// allocation profiles.
var emptyNodeSet value.Value = value.NodeSet{}

// selectStep selects axis::test from n in proximity order, through the
// document index unless disabled, appending to dst (the result never
// aliases index storage).
func (e *evaluator) selectStep(dst []*xmltree.Node, a ast.Axis, t ast.NodeTest, n *xmltree.Node) []*xmltree.Node {
	if e.opts.DisableIndex {
		return axes.AppendSelectProximity(dst, nil, a, t, n)
	}
	if e.idx == nil {
		e.idx = n.Document().Index()
	}
	return axes.AppendSelectProximity(dst, e.idx, a, t, n)
}

// markSensitive computes, per subexpression, whether its value can depend
// on the context position or size. Location paths re-bind position/size
// for their predicates, so a Path is never sensitive regardless of its
// predicate contents. Shared subexpressions (DAG-shaped queries) are
// visited once.
func markSensitive(e ast.Expr, out map[ast.Expr]bool) bool {
	if v, ok := out[e]; ok {
		return v
	}
	switch x := e.(type) {
	case *ast.Call:
		s := x.Name == "position" || x.Name == "last"
		for _, a := range x.Args {
			if markSensitive(a, out) {
				s = true
			}
		}
		out[e] = s
	case *ast.Binary:
		l := markSensitive(x.Left, out)
		r := markSensitive(x.Right, out)
		out[e] = l || r
	case *ast.Unary:
		out[e] = markSensitive(x.Operand, out)
	case *ast.Path:
		for _, st := range x.Steps {
			for _, p := range st.Preds {
				markSensitive(p, out) // fills the map for inner expressions
			}
		}
		out[e] = false
	default:
		out[e] = false
	}
	return out[e]
}

func (e *evaluator) key(expr ast.Expr, ctx evalctx.Context) ctxKey {
	if !e.opts.DisableAdaptiveKeys && !e.sensitive[expr] {
		return ctxKey{node: ctx.Node}
	}
	return ctxKey{node: ctx.Node, pos: ctx.Pos, size: ctx.Size}
}

// charge bumps the counter and the guard by the same n, so the guard's
// op budget is denominated exactly like Counter.Budget.
func (e *evaluator) charge(n int64) error {
	if err := e.opts.Counter.Step(n); err != nil {
		return err
	}
	if e.opts.Guard != nil {
		return e.opts.Guard.Step(n)
	}
	return nil
}

func (e *evaluator) eval(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	if g := e.opts.Guard; g != nil {
		if err := g.Enter(); err != nil {
			return nil, err
		}
		defer g.Exit()
	}
	if e.opts.Tracer == nil {
		return e.evalMemo(expr, ctx)
	}
	sp := e.opts.Tracer.Enter(expr, ctx, e.opts.Counter)
	v, err := e.evalMemo(expr, ctx)
	e.opts.Tracer.Exit(sp, v, e.opts.Counter)
	return v, err
}

func (e *evaluator) evalMemo(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	if err := e.charge(1); err != nil {
		return nil, err
	}
	var k ctxKey
	if !e.opts.DisableMemo {
		k = e.key(expr, ctx)
		if tbl, ok := e.tables[expr]; ok {
			if v, hit := tbl[k]; hit {
				e.memoHits++
				return v, nil
			}
		}
		e.memoMisses++
	}
	v, err := e.compute(expr, ctx)
	if err != nil {
		return nil, err
	}
	if !e.opts.DisableMemo {
		tbl := e.tables[expr]
		if tbl == nil {
			tbl = e.getTable()
			e.tables[expr] = tbl
		}
		tbl[k] = v
	}
	return v, nil
}

func (e *evaluator) compute(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	switch x := expr.(type) {
	case *ast.Path:
		return e.evalPath(x, ctx)
	case *ast.Binary:
		return e.evalBinary(x, ctx)
	case *ast.Unary:
		v, err := e.eval(x.Operand, ctx)
		if err != nil {
			return nil, err
		}
		return value.Number(-value.ToNumber(v)), nil
	case *ast.Call:
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := e.eval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return funcs.Call(x.Name, ctx, args)
	case *ast.Number:
		return value.Number(x.Val), nil
	case *ast.Literal:
		return value.String(x.Val), nil
	case *ast.LabelTest:
		return value.Boolean(ctx.Node != nil && ctx.Node.HasLabel(x.Label)), nil
	default:
		return nil, fmt.Errorf("cvt: unsupported expression %T", expr)
	}
}

func (e *evaluator) evalBinary(b *ast.Binary, ctx evalctx.Context) (value.Value, error) {
	switch {
	case b.Op == ast.OpOr || b.Op == ast.OpAnd:
		l, err := e.eval(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		lb := value.ToBoolean(l)
		if b.Op == ast.OpOr && lb {
			return value.Boolean(true), nil
		}
		if b.Op == ast.OpAnd && !lb {
			return value.Boolean(false), nil
		}
		r, err := e.eval(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		return value.Boolean(value.ToBoolean(r)), nil
	case b.Op == ast.OpUnion:
		l, err := e.eval(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		ln, ok1 := l.(value.NodeSet)
		rn, ok2 := r.(value.NodeSet)
		if !ok1 || !ok2 {
			return nil, &evalctx.TypeError{Op: "union", Want: "node-set", Got: fmt.Sprintf("%s | %s", l.Kind(), r.Kind())}
		}
		return ln.Union(rn), nil
	case b.Op.IsRelational():
		l, err := e.eval(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		return value.Boolean(value.Compare(b.Op, l, r)), nil
	default:
		l, err := e.eval(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		return value.Number(value.Arith(b.Op, value.ToNumber(l), value.ToNumber(r))), nil
	}
}

// evalPath evaluates a location path with set semantics: the frontier
// after every step is a normalized node set, which is the invariant that
// keeps intermediate results bounded by |D|. The step frontiers live in
// two pooled buffers (the step being built and the one being read); only
// the final frontier is copied into the slab, where the memo keeps it.
func (e *evaluator) evalPath(p *ast.Path, ctx evalctx.Context) (value.Value, error) {
	if p.Absolute {
		if ctx.Node == nil {
			return nil, fmt.Errorf("cvt: absolute path with no context document")
		}
		e.start[0] = ctx.Node.Document().Root
	} else {
		e.start[0] = ctx.Node
	}
	if len(p.Steps) == 0 {
		return e.carve(e.start[:1]), nil
	}
	b0, b1 := e.getBuf(), e.getBuf()
	frontier, err := e.runSteps(p.Steps, e.start[:1], &b0, &b1)
	var v value.Value
	if err == nil {
		if len(frontier) == 0 {
			v = emptyNodeSet
		} else {
			v = e.carve(frontier)
		}
	}
	e.putBuf(b0)
	e.putBuf(b1)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// runSteps applies the location steps to the start frontier, alternating
// between the two caller-provided buffers (written back so regrown
// capacity is recycled). The returned frontier aliases one of them.
func (e *evaluator) runSteps(steps []*ast.Step, frontier []*xmltree.Node, b0, b1 *[]*xmltree.Node) ([]*xmltree.Node, error) {
	for si, step := range steps {
		buf := b0
		if si&1 == 1 {
			buf = b1
		}
		collected := (*buf)[:0]
		for _, n := range frontier {
			base := len(collected)
			collected = e.selectStep(collected, step.Axis, step.Test, n)
			sel := collected[base:]
			if err := e.charge(int64(len(sel) + 1)); err != nil {
				return nil, err
			}
			for _, pred := range step.Preds {
				kept, err := e.filterPredicate(sel, pred)
				if err != nil {
					return nil, err
				}
				sel = kept
			}
			collected = collected[:base+len(sel)]
			if e.opts.Guard != nil {
				if err := e.opts.Guard.CheckNodeSet(len(collected)); err != nil {
					return nil, err
				}
			}
		}
		collected = e.normalizeFrontier(collected)
		*buf = collected
		frontier = collected
	}
	return frontier, nil
}

// normalizeFrontier normalizes a step's collected selections into a node
// set, in place (the result is a prefix of collected's storage). Sorting
// costs O(K log K) in the collection size K, which dominates the
// evaluation when steps fan out from many context nodes; with the index
// live and a collection comparable to the document, a document-order
// bitmap scan dedupes in O(|D|+K) instead. Both produce the identical
// normalized set, and neither touches the operation counter.
func (e *evaluator) normalizeFrontier(collected []*xmltree.Node) []*xmltree.Node {
	if e.idx == nil || len(collected) < 64 || len(collected)*4 < len(e.idx.Doc().Nodes) {
		slices.SortFunc(collected, func(a, b *xmltree.Node) int { return int(a.Ord - b.Ord) })
		out := collected[:0]
		for _, n := range collected {
			if len(out) == 0 || out[len(out)-1] != n {
				out = append(out, n)
			}
		}
		return out
	}
	d := e.idx.Doc()
	if len(e.marks) < len(d.Nodes) {
		e.marks = make([]bool, len(d.Nodes))
	}
	for _, n := range collected {
		e.marks[n.Ord] = true
	}
	// The marked scan emits at most len(collected) distinct nodes, so it
	// can overwrite collected as it goes: the marking pass above already
	// consumed the input.
	out := collected[:0]
	for _, n := range d.Nodes {
		if e.marks[n.Ord] {
			e.marks[n.Ord] = false
			out = append(out, n)
		}
	}
	return out
}

// filterPredicate filters sel in place by pred, per the XPath predicate
// rule (a number result keeps the node at that proximity position). sel
// is always storage the evaluator owns — selectStep copies out of index
// storage — so overwriting it is safe.
func (e *evaluator) filterPredicate(sel []*xmltree.Node, pred ast.Expr) ([]*xmltree.Node, error) {
	out := sel[:0]
	size := len(sel)
	for i, n := range sel {
		pctx := evalctx.Context{Node: n, Pos: i + 1, Size: size}
		v, err := e.eval(pred, pctx)
		if err != nil {
			return nil, err
		}
		keep := false
		if num, isNum := v.(value.Number); isNum {
			keep = float64(num) == float64(i+1)
		} else {
			keep = value.ToBoolean(v)
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}
