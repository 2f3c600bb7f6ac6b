package xpathcomplexity

import (
	"container/list"
	"fmt"
	"sync"

	"xpathcomplexity/internal/fragment"
	"xpathcomplexity/internal/vm"
	"xpathcomplexity/internal/xpath/rewrite"
)

// Compiled is a fully prepared query: parsed, classified, rewritten into
// an engine-bound plan, and bound to the engine EngineAuto selects. The
// binding is the only resolution of EngineAuto: it is made once per
// query, and an ad-hoc Query evaluated with EngineAuto runs through the
// same memoized Compiled. Together with the plan cache this makes
// repeated evaluation of the same query text skip lexing, parsing,
// classification, rewriting and engine lowering entirely.
//
// A Compiled is immutable and safe for concurrent use.
type Compiled struct {
	// Query is the underlying parsed and classified query.
	*Query
	// Bound is the engine EngineAuto resolves to for this query's plan.
	Bound Engine

	// planQuery is the plan the bound engine evaluates: the rewritten
	// expression (descendant-step collapse, and the Remark 5.2 predicate
	// fold when it moves the query into a cheaper fragment) with its
	// classification, or the Query itself when no rewrite applied. It
	// carries the memoized VM lowering the bound engine runs.
	planQuery *Query
	// vmIneligible is the vm.ineligible.<reason> counter EngineAuto
	// evaluations bump when the plan binds to a tree engine ("" when it
	// binds to the VM), built once here so evaluation never
	// concatenates.
	vmIneligible string
}

// bind builds the engine-bound plan for a compiled query: it folds
// iterated predicates (Remark 5.2: χ::t[e1][e2] ≡ χ::t[e1 and e2] when
// position-free) when the folded form classifies into a fragment with a
// cheaper recommended engine, then resolves EngineAuto's choice.
func bind(q *Query) *Compiled {
	plan, cls, rewritten := q.Expr, q.Class, false
	// Collapse '//' step pairs into single descendant steps so the
	// engines see tag-targeted steps instead of whole-tree node()
	// frontiers; the rewrite guards itself against positional
	// predicates, so the collapsed plan is always equivalent.
	if collapsed, changed := rewrite.CollapseDescendantSteps(plan); changed {
		plan, cls, rewritten = collapsed, fragment.Classify(collapsed), true
	}
	if folded, changed := rewrite.FoldIteratedPredicates(plan); changed {
		if c2 := fragment.Classify(folded); c2.RecommendEngine() == fragment.EngineCoreLinear &&
			cls.RecommendEngine() != fragment.EngineCoreLinear {
			plan, cls, rewritten = folded, c2, true
		}
	}
	c := &Compiled{Query: q, planQuery: q}
	if rewritten {
		c.planQuery = &Query{Source: q.Source, Expr: plan, Class: cls}
		// The rewritten plan's own binding is this one, so EngineAuto
		// resolves identically through either Query.
		c.planQuery.planOnce.Do(func() { c.planQuery.compiled = c })
	}
	// Engine priority: the bytecode VM for every plan it compiles (Core
	// XPath plus countable positional predicates, path-versus-literal
	// comparisons and top-level count()/sum(): Proposition 2.7's set
	// algebra with its interpretation overhead compiled away and
	// peephole optimized), then the fragment's tree engine. The VM
	// serves the downward predicate-free paths too: its sparse frontier
	// beats the streaming NFA's whole-tree walk on a resident document
	// (EXP-VM3), so the NFA is compiled only when a caller pins
	// EngineStreaming. The lowering is memoized on the plan's Query, so
	// the plan cache carries the program the bound engine runs
	// alongside the rewritten AST.
	if _, err := c.planQuery.vmProgram(); err == nil {
		c.Bound = EngineVM
	} else {
		c.Bound = c.treeEngine()
		if reason := vm.Reason(err); reason != "" {
			c.vmIneligible = "vm.ineligible." + reason
		}
	}
	return c
}

// treeEngine is the tree-based engine the plan's fragment recommends —
// the binding used for runs the VM cannot serve (tracing and
// ExplainAnalyze need per-subexpression spans).
func (c *Compiled) treeEngine() Engine {
	if c.planQuery.Class.RecommendEngine() == fragment.EngineCoreLinear {
		return EngineCoreLinear
	}
	return EngineCVT
}

// Prepare compiles a query through the package's default plan cache:
// the first call parses, classifies and binds; subsequent calls with
// the same query text return the cached *Compiled. Errors are not
// cached.
func Prepare(query string) (*Compiled, error) {
	return defaultPlanCache.Prepare(query)
}

// MustPrepare is Prepare, panicking on error.
func MustPrepare(query string) *Compiled {
	c, err := Prepare(query)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval evaluates the prepared plan in the given context with default
// options.
func (c *Compiled) Eval(ctx Context) (Value, error) {
	return c.EvalOptions(ctx, EvalOptions{})
}

// EvalRoot evaluates the prepared plan from the document root.
func (c *Compiled) EvalRoot(d *Document) (Value, error) {
	return c.EvalOptions(RootContext(d), EvalOptions{})
}

// EvalOptions evaluates the prepared plan with explicit options. With
// Engine left as EngineAuto the preparation-time engine binding is
// used, and a plan that missed the VM bumps its vm.ineligible.<reason>
// counter; an explicit engine overrides the binding but still evaluates
// the rewritten plan — the plan rewrites guard themselves (positional
// predicates block them), so the plan is equivalent under every engine.
//
// With a Cache attached the result-cache key is built from the original
// query text and the resolved engine binding, so prepared and ad-hoc
// evaluations of the same text share entries.
func (c *Compiled) EvalOptions(ctx Context, opts EvalOptions) (Value, error) {
	if opts.Engine == EngineAuto {
		opts.Engine = c.Bound
		if opts.Engine == EngineVM && opts.Trace != nil {
			// The flat bytecode has no per-subexpression spans to trace;
			// traced runs use the tree engine the fragment recommends
			// instead.
			opts.Engine = c.treeEngine()
		}
		if c.vmIneligible != "" && opts.Metrics != nil {
			// Why the plan missed the VM, for fleet-level tallies of
			// which fragment gaps would pay to close next.
			opts.Metrics.Counter(c.vmIneligible).Inc()
		}
	}
	return c.planQuery.EvalOptions(ctx, opts)
}

// VMProgram returns the bytecode EngineVM runs for this query —
// compiled from the rewritten plan (descendant-step collapse,
// predicate folds) and peephole optimized — or the compile error when
// the plan falls outside the VM's fragment. Callers get the exact
// production program, bit-for-bit; harnesses that need variant
// lowerings (fusion or peephole disabled) compile the plan themselves
// with vm.CompileWith.
func (c *Compiled) VMProgram() (*vm.Program, error) {
	return c.planQuery.vmProgram()
}

// Select evaluates a node-set query from the document root.
func (c *Compiled) Select(d *Document) (NodeSet, error) {
	v, err := c.EvalRoot(d)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpathcomplexity: query %q returned %s, not a node-set", c.Source, v.Kind())
	}
	return ns, nil
}

// DefaultPlanCacheCapacity is the capacity of the package-level plan
// cache behind Prepare.
const DefaultPlanCacheCapacity = 512

var defaultPlanCache = NewPlanCache(DefaultPlanCacheCapacity)

// PlanCache is a bounded, goroutine-safe LRU cache of prepared queries
// keyed by query text. The zero value is not usable; construct with
// NewPlanCache.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *planEntry
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type planEntry struct {
	query    string
	compiled *Compiled
}

// NewPlanCache creates a plan cache holding at most capacity prepared
// queries (minimum 1); past capacity the least recently used plan is
// evicted.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Prepare returns the cached plan for the query text, compiling and
// inserting it on a miss. Compilation runs outside the cache lock, so a
// slow parse never blocks unrelated lookups; concurrent first calls for
// the same text may compile twice, with the first insertion winning.
func (pc *PlanCache) Prepare(query string) (*Compiled, error) {
	pc.mu.Lock()
	if el, ok := pc.entries[query]; ok {
		pc.order.MoveToFront(el)
		pc.hits++
		c := el.Value.(*planEntry).compiled
		pc.mu.Unlock()
		return c, nil
	}
	pc.misses++
	pc.mu.Unlock()

	q, err := Compile(query)
	if err != nil {
		return nil, err
	}
	c := q.plan()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[query]; ok { // lost the compile race
		pc.order.MoveToFront(el)
		return el.Value.(*planEntry).compiled, nil
	}
	el := pc.order.PushFront(&planEntry{query: query, compiled: c})
	pc.entries[query] = el
	for pc.order.Len() > pc.capacity {
		last := pc.order.Back()
		pc.order.Remove(last)
		delete(pc.entries, last.Value.(*planEntry).query)
		pc.evictions++
	}
	return c, nil
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.order.Len()
}

// PlanCacheStats is the cumulative activity of a PlanCache.
type PlanCacheStats struct {
	// Hits and Misses count Prepare lookups since construction.
	Hits, Misses int64
	// Evictions counts plans dropped to the capacity bound.
	Evictions int64
	// Size is the current number of cached plans.
	Size int
}

// Stats returns the cache's cumulative hit/miss/eviction counts and its
// current size.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Size:      pc.order.Len(),
	}
}

// RecordMetrics copies the cache's cumulative statistics into a metrics
// registry as absolute-valued gauges (plan_cache.hits, plan_cache.misses,
// plan_cache.evictions, plan_cache.size).
func (pc *PlanCache) RecordMetrics(m *Metrics) {
	if m == nil {
		return
	}
	st := pc.Stats()
	m.Gauge("plan_cache.hits").SetMax(st.Hits)
	m.Gauge("plan_cache.misses").SetMax(st.Misses)
	m.Gauge("plan_cache.evictions").SetMax(st.Evictions)
	m.Gauge("plan_cache.size").SetMax(int64(st.Size))
}

// DefaultPlanCache returns the package-level plan cache behind Prepare,
// for callers that want its Stats or RecordMetrics.
func DefaultPlanCache() *PlanCache { return defaultPlanCache }
