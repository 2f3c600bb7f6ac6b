// Package corelinear implements the O(|D|·|Q|) Core XPath evaluator of
// Gottlob/Koch (Proposition 2.7, second part; algorithm from [VLDB'02]).
//
// Core XPath (Definition 2.5 of the paper) is the logic-and-paths fragment:
// location paths over all axes, conditions built from 'and', 'or', 'not'
// and location paths, plus the T(l) label test of Remark 3.1. The key to
// linearity is that every syntactic query node is translated into one node
// *set* over the document:
//
//   - forward pass for the main path: the frontier after each step is
//     χ(F) ∩ test ∩ E[conditions], each an O(|D|) set operation;
//   - backward pass for condition paths: E[χ::t[e]/rest] =
//     χ⁻¹(test ∩ E[e] ∩ E[rest]), using the inverse-axis set operations of
//     package nodeset, again O(|D|) each.
//
// Every query-tree node is processed exactly once, so the total running
// time is O(|D|·|Q|).
//
// Beyond Core XPath the evaluator serves the counting fragment of
// package counting: positional predicates ([k], [last()],
// position()/last() comparisons) on child/attribute steps compile to
// one whole-document counting pass each — a node's rank among its
// parent's test-passing children is context independent — keeping the
// same set-per-query-node structure and O(|D|·|Q|) bound. The package
// rejects queries outside the fragment with ErrNotCore (CheckCore) or
// counting.ErrNotCounting (CheckCounting, the evaluation gate).
package corelinear

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"xpathcomplexity/internal/axes"
	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/nodeset"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// ErrNotCore reports that a query lies outside Core XPath.
var ErrNotCore = errors.New("query is not in Core XPath")

// CheckCore verifies that expr is a Core XPath query (Definition 2.5 plus
// the T(l) extension and the explicit boolean()/true()/false() conversions
// of Lemma 5.4). It returns a descriptive error wrapping ErrNotCore
// otherwise. Shared subexpressions (DAG-shaped queries, e.g. from the
// Theorem 4.2 reduction) are visited once.
func CheckCore(expr ast.Expr) error {
	return checkCore(expr, make(map[ast.Expr]bool))
}

func checkCore(expr ast.Expr, seen map[ast.Expr]bool) error {
	if seen[expr] {
		return nil
	}
	seen[expr] = true
	switch x := expr.(type) {
	case *ast.Path:
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if err := checkCore(p, seen); err != nil {
					return err
				}
			}
		}
		return nil
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpUnion:
			if err := checkCore(x.Left, seen); err != nil {
				return err
			}
			return checkCore(x.Right, seen)
		default:
			return fmt.Errorf("%w: operator %q", ErrNotCore, x.Op)
		}
	case *ast.Call:
		switch x.Name {
		case "not", "boolean":
			return checkCore(x.Args[0], seen)
		case "true", "false":
			return nil
		default:
			return fmt.Errorf("%w: function %q", ErrNotCore, x.Name)
		}
	case *ast.LabelTest:
		return nil
	default:
		return fmt.Errorf("%w: %T expression", ErrNotCore, expr)
	}
}

// CheckCounting verifies that expr is in the full fragment this
// evaluator serves: Core XPath extended with the counting fragment's
// positional predicates. It is the gate EvaluateOptions applies;
// CheckCore remains the strict Core XPath check for callers (the
// parallel engine, Theorem 4.2 reductions) that must exclude
// positional queries.
func CheckCounting(expr ast.Expr) error {
	return counting.Check(expr)
}

// Options configure an evaluation.
type Options struct {
	// Counter counts elementary operations; may be nil.
	Counter *evalctx.Counter
	// DisableIndex evaluates without the per-document index: every node
	// test is a full scan and no singleton-frontier fast path is taken.
	// This is the seed behaviour, kept for benchmarks and for the
	// differential suite's cold reference.
	DisableIndex bool
	// Tracer, when non-nil, receives enter/exit events for the top-level
	// expression and every condition subexpression (which this engine
	// evaluates once each, to a whole-document set).
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives engine.corelinear.* totals, the
	// per-step frontier-size distribution (corelinear.frontier) and the
	// sparse→dense demotion count (corelinear.mode_switches).
	Metrics *obs.Metrics
	// Guard, when non-nil, enforces cancellation, the op budget, the
	// recursion-depth limit and the node-set cardinality limit. It is
	// charged in lockstep with Counter, so its MaxOps uses the same units
	// as Counter.Budget.
	Guard *evalctx.Guard
}

// Evaluate evaluates a Core XPath query. Node-set queries return a
// value.NodeSet; condition queries (boolean combinations at top level)
// return a value.Boolean for the context node.
func Evaluate(expr ast.Expr, ctx evalctx.Context, ctr *evalctx.Counter) (value.Value, error) {
	return EvaluateOptions(expr, ctx, Options{Counter: ctr})
}

// EvaluateOptions evaluates a Core XPath query with explicit options.
func EvaluateOptions(expr ast.Expr, ctx evalctx.Context, opts Options) (value.Value, error) {
	if err := CheckCounting(expr); err != nil {
		return nil, err
	}
	if ctx.Node == nil {
		return nil, fmt.Errorf("corelinear: nil context node")
	}
	if opts.Counter == nil && (opts.Metrics != nil || opts.Tracer != nil) {
		// Instrumentation needs a counter to measure op deltas; synthesize
		// a private one so metrics reconcile even without a caller counter.
		opts.Counter = new(evalctx.Counter)
	}
	e := evaluatorPool.Get().(*evaluator)
	e.doc = ctx.Node.Document()
	e.ctr = opts.Counter
	e.tr = opts.Tracer
	e.guard = opts.Guard
	e.arena = nodeset.NewArena()
	defer e.release()
	if opts.Metrics != nil {
		e.frontierHist = opts.Metrics.Histogram("corelinear.frontier")
	}
	if !opts.DisableIndex {
		e.idx = e.doc.Index()
	}
	startOps := opts.Counter.Ops()
	v, err := e.evalTop(expr, ctx)
	if m := opts.Metrics; m != nil {
		m.Counter("engine.corelinear.ops").Add(opts.Counter.Ops() - startOps)
		m.Counter("engine.corelinear.evals").Inc()
		m.Counter("corelinear.mode_switches").Add(e.modeSwitches)
		hits, misses := e.arena.Stats()
		obs.RecordScratch(m, hits, misses)
	}
	return v, err
}

// evaluatorPool recycles evaluators (with their memo map buckets and
// marks bitmap) across evaluations.
var evaluatorPool = sync.Pool{
	New: func() any { return &evaluator{memo: make(map[condKey]nodeset.Set)} },
}

// condKey keys the condition memo. Position-insensitive conditions
// memoize by syntactic identity alone; positional conditions
// additionally key on the owning (step, predicate-index) pair, because
// their meaning depends on where they sit. The VM compiler uses the
// identical keying, which is what keeps op charges engine-independent.
type condKey struct {
	expr ast.Expr
	step *ast.Step
	pred int
}

// posEnv is the evaluation context of a condition subexpression (see
// the identically-shaped condEnv in internal/vm).
type posEnv struct {
	// step and pred locate the owning predicate (step nil at top level).
	step *ast.Step
	pred int
	// base is the conjunction of the step's earlier predicates' sets
	// (zero when pred 0 or no positional predicate follows).
	base nodeset.Set
	// root marks the predicate root, where the XPath number-predicate
	// special forms apply ([k] selects by position).
	root bool
	// boolCtx marks a boolean-converting context, where number
	// constants fold by the ≠0 rule.
	boolCtx bool
}

// inner is the environment for subexpressions of a boolean connective.
func (v posEnv) inner() posEnv {
	v.root = false
	v.boolCtx = true
	return v
}

// keyFor computes the memo key of a condition in its environment.
func keyFor(expr ast.Expr, env posEnv) condKey {
	sens := counting.Sensitive(expr)
	if env.root {
		sens = counting.SensitiveRoot(expr)
	}
	if sens && env.step != nil {
		return condKey{expr, env.step, env.pred}
	}
	return condKey{expr: expr}
}

type evaluator struct {
	doc   *xmltree.Document
	ctr   *evalctx.Counter
	tr    *obs.Tracer
	guard *evalctx.Guard
	idx   *xmltree.Index // nil when the index is disabled
	arena *nodeset.Arena // scratch arena; every transient Set lives here
	memo  map[condKey]nodeset.Set
	marks []bool // scratch dedup bitmap for sparse frontiers, always reset
	// listBuf/selBuf/visBuf/pruneBuf are arena node buffers backing the
	// sparse frontier machinery; lazily taken, released with the arena.
	listBuf, selBuf, visBuf, pruneBuf *[]*xmltree.Node
	// frontierHist is the corelinear.frontier handle (nil when metrics are
	// off); modeSwitches counts sparse→dense demotions, flushed at the end.
	frontierHist *obs.Histogram
	modeSwitches int64
}

// release returns the evaluator and all its arena-backed scratch memory
// to the pools. The memo map and marks bitmap are retained (cleared /
// known-reset) so a warm evaluator allocates nothing.
func (e *evaluator) release() {
	clear(e.memo) // memoized sets are arena-backed; drop before the arena goes
	e.arena.Release()
	e.doc, e.ctr, e.tr, e.guard, e.idx, e.arena = nil, nil, nil, nil, nil, nil
	e.listBuf, e.selBuf, e.visBuf, e.pruneBuf = nil, nil, nil, nil
	e.frontierHist = nil
	e.modeSwitches = 0
	evaluatorPool.Put(e)
}

// buf lazily takes an arena node buffer into the given field.
func (e *evaluator) buf(p **[]*xmltree.Node) *[]*xmltree.Node {
	if *p == nil {
		*p = e.arena.NodeBuf()
	}
	return *p
}

// charge bumps the counter and the guard by the same n, so the guard's
// op budget is denominated exactly like Counter.Budget.
func (e *evaluator) charge(n int64) error {
	if err := e.ctr.Step(n); err != nil {
		return err
	}
	if e.guard != nil {
		return e.guard.Step(n)
	}
	return nil
}

// evalTop dispatches the top-level expression: a path runs forward from
// the context node, a union evaluates both sides with the shared memo,
// and anything else is a condition answered at the context node.
func (e *evaluator) evalTop(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	if g := e.guard; g != nil {
		if err := g.Enter(); err != nil {
			return nil, err
		}
		defer g.Exit()
	}
	if e.tr == nil {
		return e.evalTopInner(expr, ctx)
	}
	sp := e.tr.Enter(expr, ctx, e.ctr)
	v, err := e.evalTopInner(expr, ctx)
	e.tr.Exit(sp, v, e.ctr)
	return v, err
}

func (e *evaluator) evalTopInner(expr ast.Expr, ctx evalctx.Context) (value.Value, error) {
	if p, ok := expr.(*ast.Path); ok {
		res, err := e.forwardPath(p, ctx.Node)
		if err != nil {
			return nil, err
		}
		// Nodes() materializes into fresh heap memory, so the result
		// survives the arena release; it is sorted and duplicate free, so
		// no normalization copy is needed.
		return value.NodeSetFromOrdered(res.Nodes()), nil
	}
	if b, ok := expr.(*ast.Binary); ok && b.Op == ast.OpUnion {
		l, err := e.evalTop(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.evalTop(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		return l.(value.NodeSet).Union(r.(value.NodeSet)), nil
	}
	set, err := e.condSet(expr, posEnv{})
	if err != nil {
		return nil, err
	}
	return value.Boolean(set.Has(ctx.Node)), nil
}

// observeFrontier records one post-step frontier size; the (linear) dense
// count is only taken when the histogram is live.
func (e *evaluator) observeFrontier(sparse bool, list []*xmltree.Node, dense nodeset.Set) {
	if e.frontierHist == nil {
		return
	}
	if sparse {
		e.frontierHist.Observe(int64(len(list)))
	} else {
		e.frontierHist.Observe(int64(dense.Count()))
	}
}

// testSet returns the membership set of a node test, from the index's
// shared per-document cache when available. The result is read-only
// either way: callers only And it into fresh sets.
func (e *evaluator) testSet(a ast.Axis, t ast.NodeTest) nodeset.Set {
	if e.idx != nil {
		return nodeset.TestSetCached(e.idx, a, t)
	}
	return nodeset.TestSetArena(e.arena, e.doc, a, t)
}

// forwardPath evaluates a location path from a single start node,
// left-to-right over set frontiers. With an index it runs in hybrid
// sparse/dense mode (forwardPathSparse); without one every step is a
// dense O(|D|) axis pass plus test intersection, the seed behaviour.
func (e *evaluator) forwardPath(p *ast.Path, start *xmltree.Node) (nodeset.Set, error) {
	first := start
	if p.Absolute {
		first = e.doc.Root
	}
	if e.idx != nil {
		return e.forwardPathSparse(p, first)
	}
	frontier := e.arena.New(e.doc)
	frontier.Add(first)
	for _, step := range p.Steps {
		if err := e.charge(int64(len(e.doc.Nodes))); err != nil {
			return nodeset.Set{}, err
		}
		// The frontier is exclusively ours and the axis image is fresh (or,
		// for self, the frontier itself), so the node test intersects in
		// place.
		next := nodeset.ApplyAxisIndexedOwned(e.arena, nil, step.Axis, frontier).
			AndWith(e.testSet(step.Axis, step.Test))
		pe := e.predEval(step)
		for i := range step.Preds {
			cond, err := pe.set(i)
			if err != nil {
				return nodeset.Set{}, err
			}
			next = next.AndWith(cond)
		}
		frontier = next
		e.observeFrontier(false, nil, frontier)
	}
	return frontier, nil
}

// sparseDivisor bounds list-mode frontiers: a frontier stays an explicit
// node list while it holds at most |D|/sparseDivisor nodes, and demotes
// to a dense membership set beyond that. A sparse step touches only the
// frontier and its image where a dense step makes ~3 full-document
// passes, so sparse wins until the frontier is a sizable fraction of the
// document.
const sparseDivisor = 2

// forwardPathSparse evaluates the steps keeping the frontier as an
// explicit node list while it is small, so each step costs O(output)
// via per-node index lookups rather than O(|D|) dense passes. The
// frontier demotes to a dense set (and stays dense) as soon as it grows
// past the sparse bound or the step's axis has no sparse selection.
// Counter charges are identical in both modes — one Step(|D|) per step —
// so operation counts do not depend on the representation.
func (e *evaluator) forwardPathSparse(p *ast.Path, first *xmltree.Node) (nodeset.Set, error) {
	// The sparse frontier double-buffers between two arena node buffers:
	// selectSparse reads the current list while appending into the spare,
	// then the roles swap. Predicate filtering compacts in place.
	cur, spare := e.buf(&e.listBuf), e.buf(&e.selBuf)
	*cur = append((*cur)[:0], first)
	list := *cur // sparse frontier, valid while sparse
	sparse := true
	var dense nodeset.Set // dense frontier, valid once !sparse
	for _, step := range p.Steps {
		if err := e.charge(int64(len(e.doc.Nodes))); err != nil {
			return nodeset.Set{}, err
		}
		if sparse {
			if sel, ok := e.selectSparse(step.Axis, step.Test, list, (*spare)[:0]); ok {
				*spare = sel
				list = sel
				cur, spare = spare, cur
			} else {
				dense, sparse = e.arena.FromNodes(e.doc, list...), false
				e.modeSwitches++
			}
		}
		if !sparse {
			dense = nodeset.ApplyAxisIndexedOwned(e.arena, e.idx, step.Axis, dense).
				AndWith(e.testSet(step.Axis, step.Test))
		}
		pe := e.predEval(step)
		for i := range step.Preds {
			cond, err := pe.set(i)
			if err != nil {
				return nodeset.Set{}, err
			}
			if sparse {
				kept := list[:0] // the frontier buffer is exclusively ours
				for _, n := range list {
					if cond.HasOrd(int(n.Ord)) {
						kept = append(kept, n)
					}
				}
				list = kept
				*cur = kept
			} else {
				dense = dense.AndWith(cond)
			}
		}
		if sparse && len(list) > len(e.doc.Nodes)/sparseDivisor {
			dense, sparse = e.arena.FromNodes(e.doc, list...), false
			e.modeSwitches++
		}
		// Only materialized (sparse) frontiers are counted against the
		// node-set limit; dense bitsets are O(|D|) by construction.
		if sparse && e.guard != nil {
			if err := e.guard.CheckNodeSet(len(list)); err != nil {
				return nodeset.Set{}, err
			}
		}
		e.observeFrontier(sparse, list, dense)
	}
	if sparse {
		return e.arena.FromNodes(e.doc, list...), nil
	}
	return dense, nil
}

// selectSparse computes axis::test over an explicit frontier list for
// the axes whose cost is bounded by the frontier and output sizes:
// per-node neighbourhoods with disjoint images (self, child, attribute),
// parent (deduplicated via the marks scratch), ancestor and
// following-sibling chains with a visited-stop, and the descendant axes
// via subtree slices from a nesting-pruned frontier. Following/preceding
// apply only from a singleton frontier, where AppendSelectFast slices the tag
// list directly. Preceding-sibling reports ok=false and falls
// back to the dense passes. The result is appended to out (the caller's
// spare frontier buffer, sliced to length 0), duplicate free, in
// arbitrary order (positional ranks come from whole-document counting
// sets filtered by membership, never from frontier order, and the final
// set conversion restores document order).
func (e *evaluator) selectSparse(a ast.Axis, t ast.NodeTest, list, out []*xmltree.Node) ([]*xmltree.Node, bool) {
	switch a {
	case ast.AxisSelf:
		for _, n := range list {
			if axes.MatchTest(a, n, t) {
				out = append(out, n)
			}
		}
	case ast.AxisChild:
		// Distinct frontier nodes have disjoint child lists: no dedup.
		for _, n := range list {
			for _, c := range n.Children {
				if axes.MatchTest(a, c, t) {
					out = append(out, c)
				}
			}
		}
	case ast.AxisAttribute:
		for _, n := range list {
			for _, at := range n.Attrs {
				if axes.MatchTest(a, at, t) {
					out = append(out, at)
				}
			}
		}
	case ast.AxisParent:
		if len(e.marks) < len(e.doc.Nodes) {
			e.marks = make([]bool, len(e.doc.Nodes))
		}
		for _, n := range list {
			if p := n.Parent; p != nil && !e.marks[p.Ord] && axes.MatchTest(a, p, t) {
				e.marks[p.Ord] = true
				out = append(out, p)
			}
		}
		for _, n := range out {
			e.marks[n.Ord] = false
		}
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		// Walk parent chains with a visited-stop: once a chain hits an
		// already-visited node the rest of it is visited too, so the
		// total walk is O(frontier + distinct ancestors).
		if len(e.marks) < len(e.doc.Nodes) {
			e.marks = make([]bool, len(e.doc.Nodes))
		}
		par := e.idx.ParentOrds()
		vb := e.buf(&e.visBuf)
		visited := (*vb)[:0]
		for _, n := range list {
			j := n.Ord
			if a == ast.AxisAncestor {
				j = par[n.Ord]
			}
			for ; j >= 0 && !e.marks[j]; j = par[j] {
				e.marks[j] = true
				visited = append(visited, e.doc.Nodes[j])
			}
		}
		*vb = visited
		for _, m := range visited {
			e.marks[m.Ord] = false
			if axes.MatchTest(a, m, t) {
				out = append(out, m)
			}
		}
	case ast.AxisFollowingSibling:
		// Same visited-stop trick along next-sibling chains: a visited
		// node's entire suffix is already visited.
		if len(e.marks) < len(e.doc.Nodes) {
			e.marks = make([]bool, len(e.doc.Nodes))
		}
		next := e.idx.NextSiblingOrds()
		vb := e.buf(&e.visBuf)
		visited := (*vb)[:0]
		for _, n := range list {
			for j := next[n.Ord]; j >= 0 && !e.marks[j]; j = next[j] {
				e.marks[j] = true
				visited = append(visited, e.doc.Nodes[j])
			}
		}
		*vb = visited
		for _, m := range visited {
			e.marks[m.Ord] = false
			if axes.MatchTest(a, m, t) {
				out = append(out, m)
			}
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		// After pruning frontier nodes nested inside other members, the
		// surviving subtrees are pairwise disjoint, and a pruned member's
		// whole selection (itself included, for descendant-or-self) lies
		// inside its covering ancestor's subtree slice.
		for _, n := range e.pruneNested(list) {
			if a == ast.AxisDescendantOrSelf && axes.MatchTest(a, n, t) {
				out = append(out, n)
			}
			var ok bool
			if out, ok = axes.AppendSelectFast(out, e.idx, a, t, n); !ok {
				return nil, false
			}
		}
	case ast.AxisFollowing, ast.AxisPreceding:
		if len(list) != 1 {
			return nil, false
		}
		var ok bool
		if out, ok = axes.AppendSelectFast(out, e.idx, a, t, list[0]); !ok {
			return nil, false
		}
	default:
		return nil, false
	}
	return out, true
}

// pruneNested drops the non-attribute list members lying inside another
// member's subtree. Attributes always survive: the subtree slices the
// descendant axes select from hold no attributes, so an attribute's
// self-only descendant-or-self selection is its own even inside a kept
// member's subtree.
func (e *evaluator) pruneNested(list []*xmltree.Node) []*xmltree.Node {
	if len(list) <= 1 {
		return list
	}
	pb := e.buf(&e.pruneBuf)
	sorted := append((*pb)[:0], list...)
	*pb = sorted
	slices.SortFunc(sorted, func(a, b *xmltree.Node) int { return int(a.Pre - b.Pre) })
	out := sorted[:0]
	var cover *xmltree.Node // the last kept non-attribute member
	for _, n := range sorted {
		if n.Type != xmltree.AttributeNode {
			if cover != nil && n.Pre > cover.Pre && n.Post < cover.Post {
				continue
			}
			cover = n
		}
		out = append(out, n)
	}
	return out
}

// predEval evaluates a step's predicate list left to right, supplying
// each predicate its positional environment. For a positional predicate
// at index i > 0, rank counting is restricted to siblings that pass the
// earlier predicates, so predEval lazily accumulates the conjunction of
// preceding condition sets — only while a position-sensitive predicate
// still follows (lastSens), exactly as the VM compiler chains OpAndSlot.
// The accumulated base aliases memoized condition sets and is only ever
// read, never mutated.
type predEval struct {
	e        *evaluator
	step     *ast.Step
	lastSens int
	base     nodeset.Set
}

func (e *evaluator) predEval(step *ast.Step) predEval {
	pe := predEval{e: e, step: step, lastSens: -1}
	if len(step.Preds) > 1 {
		for i, p := range step.Preds {
			if counting.SensitiveRoot(p) {
				pe.lastSens = i
			}
		}
	}
	return pe
}

// set computes predicate i's condition set.
func (pe *predEval) set(i int) (nodeset.Set, error) {
	env := posEnv{step: pe.step, pred: i, root: true, boolCtx: true}
	if i > 0 {
		env.base = pe.base
	}
	cond, err := pe.e.condSet(pe.step.Preds[i], env)
	if err != nil {
		return nodeset.Set{}, err
	}
	if i < pe.lastSens {
		if pe.base.Words == nil {
			pe.base = cond
		} else {
			pe.base = pe.e.arena.And(pe.base, cond)
		}
	}
	return cond, nil
}

// posSet materializes a recognized positional condition as a
// whole-document set: the nodes whose rank among their parent's
// test-and-base-passing children satisfies the comparison. On the
// singleton axes the rank is always 1 of 1 and the condition folds to a
// constant. The uncharged counting pass mirrors OpCondPos.
func (e *evaluator) posSet(cnd counting.Cond, env posEnv) (nodeset.Set, error) {
	if cnd.IsConst {
		if cnd.Const {
			return e.arena.Full(e.doc), nil
		}
		return e.arena.New(e.doc), nil
	}
	step := env.step
	if step == nil {
		return nodeset.Set{}, fmt.Errorf("%w: positional comparison outside a predicate", ErrNotCore)
	}
	if counting.SingletonAxis(step.Axis) {
		if cnd.Cmp.Eval(1, 1) {
			return e.arena.Full(e.doc), nil
		}
		return e.arena.New(e.doc), nil
	}
	if !counting.CountableAxis(step.Axis) {
		return nodeset.Set{}, fmt.Errorf("%w: positional predicate on the %s axis", ErrNotCore, step.Axis)
	}
	out := e.arena.New(e.doc)
	counting.Fill(e.doc, step.Axis, e.testSet(step.Axis, step.Test), env.base, cnd.Cmp, out)
	return out, nil
}

// condSet computes E[cond] = the set of nodes at which the condition
// holds. Each syntactic condition node is computed exactly once (memo);
// position-sensitive conditions are computed once per owning predicate
// (see condKey). Traced visits carry the zero context: a condition set
// is computed for the whole document, not for one context node.
func (e *evaluator) condSet(expr ast.Expr, env posEnv) (nodeset.Set, error) {
	if g := e.guard; g != nil {
		if err := g.Enter(); err != nil {
			return nodeset.Set{}, err
		}
		defer g.Exit()
	}
	if e.tr == nil {
		return e.condSetInner(expr, env)
	}
	sp := e.tr.Enter(expr, evalctx.Context{}, e.ctr)
	s, err := e.condSetInner(expr, env)
	e.tr.ExitSet(sp, s, e.ctr)
	return s, err
}

func (e *evaluator) condSetInner(expr ast.Expr, env posEnv) (nodeset.Set, error) {
	key := keyFor(expr, env)
	if s, ok := e.memo[key]; ok {
		return s, nil
	}
	if err := e.charge(int64(len(e.doc.Nodes))); err != nil {
		return nodeset.Set{}, err
	}
	if env.root {
		// The XPath number-predicate forms: [k] is position()=k, [last()]
		// is position()=last(), a bare [position()] is constantly true.
		if cnd, ok := counting.RecognizeRoot(expr); ok {
			out, err := e.posSet(cnd, env)
			if err != nil {
				return nodeset.Set{}, err
			}
			e.memo[key] = out
			return out, nil
		}
		env.root = false
	}
	var out nodeset.Set
	var err error
	switch x := expr.(type) {
	case *ast.Binary:
		var l, r nodeset.Set
		switch x.Op {
		case ast.OpAnd:
			if l, err = e.condSet(x.Left, env.inner()); err != nil {
				return nodeset.Set{}, err
			}
			if r, err = e.condSet(x.Right, env.inner()); err != nil {
				return nodeset.Set{}, err
			}
			out = e.arena.And(l, r)
		case ast.OpOr, ast.OpUnion:
			if l, err = e.condSet(x.Left, env.inner()); err != nil {
				return nodeset.Set{}, err
			}
			if r, err = e.condSet(x.Right, env.inner()); err != nil {
				return nodeset.Set{}, err
			}
			out = e.arena.Or(l, r)
		default:
			if x.Op.IsRelational() {
				cnd, ok := counting.RecognizeCmp(x)
				if !ok {
					return nodeset.Set{}, fmt.Errorf("%w: relational %q over non-positional operands", ErrNotCore, x.Op)
				}
				if out, err = e.posSet(cnd, env); err != nil {
					return nodeset.Set{}, err
				}
				break
			}
			cnd, ok := counting.Cond{}, false
			if env.boolCtx {
				cnd, ok = counting.RecognizeBool(expr)
			}
			if !ok {
				return nodeset.Set{}, fmt.Errorf("%w: operator %q", ErrNotCore, x.Op)
			}
			if out, err = e.posSet(cnd, env); err != nil {
				return nodeset.Set{}, err
			}
		}
	case *ast.Call:
		switch x.Name {
		case "not":
			inner, err := e.condSet(x.Args[0], env.inner())
			if err != nil {
				return nodeset.Set{}, err
			}
			out = e.arena.Not(inner)
		case "boolean":
			return e.condSet(x.Args[0], env.inner())
		case "true":
			out = e.arena.Full(e.doc)
		case "false":
			out = e.arena.New(e.doc)
		case "position", "last":
			// In a boolean context both are constantly true: positions are
			// numbered from one. Number-typed at top level is out of scope.
			if !env.boolCtx {
				return nodeset.Set{}, fmt.Errorf("%w: number-typed %s() at top level", ErrNotCore, x.Name)
			}
			out = e.arena.Full(e.doc)
		default:
			return nodeset.Set{}, fmt.Errorf("%w: function %q", ErrNotCore, x.Name)
		}
	case *ast.LabelTest:
		out = nodeset.LabelSetArena(e.arena, e.doc, x.Label)
	case *ast.Path:
		out, err = e.backwardPath(x)
		if err != nil {
			return nodeset.Set{}, err
		}
	default:
		cnd, ok := counting.Cond{}, false
		if env.boolCtx {
			cnd, ok = counting.RecognizeBool(expr)
		}
		if !ok {
			return nodeset.Set{}, fmt.Errorf("%w: %T in condition", ErrNotCore, expr)
		}
		if out, err = e.posSet(cnd, env); err != nil {
			return nodeset.Set{}, err
		}
	}
	e.memo[key] = out
	return out, nil
}

// backwardPath computes E[π] = { x | π evaluated at x selects ≥1 node }
// by processing the steps right-to-left with inverse-axis set operations.
func (e *evaluator) backwardPath(p *ast.Path) (nodeset.Set, error) {
	s := e.arena.Full(e.doc)
	for i := len(p.Steps) - 1; i >= 0; i-- {
		step := p.Steps[i]
		if err := e.charge(int64(len(e.doc.Nodes))); err != nil {
			return nodeset.Set{}, err
		}
		// s starts as the fresh arena Full set and stays exclusively ours
		// down the chain, so the intersections run in place and the
		// inverse image may consume it.
		s = s.AndWith(e.testSet(step.Axis, step.Test))
		pe := e.predEval(step)
		for pi := range step.Preds {
			cond, err := pe.set(pi)
			if err != nil {
				return nodeset.Set{}, err
			}
			s = s.AndWith(cond)
		}
		s = nodeset.ApplyInverseAxisIndexedOwned(e.arena, e.idx, step.Axis, s)
	}
	if p.Absolute {
		// The condition /π holds everywhere or nowhere, depending on the
		// root.
		if s.Has(e.doc.Root) {
			return e.arena.Full(e.doc), nil
		}
		return e.arena.New(e.doc), nil
	}
	return s, nil
}
