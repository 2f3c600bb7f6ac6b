// Package xpathcomplexity is a complete implementation of the algorithms
// and reductions of "The Complexity of XPath Query Evaluation" (Gottlob,
// Koch, Pichler; PODS 2003).
//
// It provides an XPath 1.0 engine with interchangeable evaluation
// strategies — one per complexity result of the paper:
//
//   - EngineNaive: the historical exponential-time evaluator (the
//     behaviour the paper attributes to pre-2003 engines);
//   - EngineCVT: the polynomial context-value-table evaluator
//     (Proposition 2.7);
//   - EngineCoreLinear: the O(|D|·|Q|) Core XPath evaluator;
//   - EngineNAuxPDA: the LOGCFL Singleton-Success decision procedure for
//     pWF/pXPath (Lemma 5.4, Theorems 5.5/6.2), with bounded negation
//     (Theorems 5.9/6.3);
//   - EngineParallel: the NC-style parallel evaluator (Remark 5.6);
//   - EngineStreaming: the single-pass NFA evaluator for downward
//     predicate-free paths;
//   - EngineVM: the bytecode compiler for the counting fragment (Core
//     XPath plus countable positional predicates), path-versus-literal
//     comparisons and top-level count()/sum(), with a peephole
//     optimizer and register machine: Proposition 2.7's set algebra
//     with the per-evaluation interpretation overhead compiled away.
//
// Compile classifies every query into the fragment lattice of Figure 1
// (PF, positive Core XPath, Core XPath, pWF, WF, pXPath, XPath).
// EngineAuto binds each query once to the cheapest engine its rewritten
// plan admits (the bytecode VM, then the fragment's tree engine); Query
// and Prepare share that one binding.
//
// The paper's hardness reductions (circuit value → Core XPath, SAC¹ →
// positive Core XPath, graph reachability → PF, circuit value → pWF with
// iterated predicates) live in internal/reduction and are exercised by the
// cmd/ tools and the benchmark suite.
package xpathcomplexity

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"xpathcomplexity/internal/eval/corelinear"
	"xpathcomplexity/internal/eval/cvt"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/eval/naive"
	"xpathcomplexity/internal/eval/nauxpda"
	"xpathcomplexity/internal/eval/parallel"
	"xpathcomplexity/internal/eval/streaming"
	"xpathcomplexity/internal/fragment"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/obs/flight"
	"xpathcomplexity/internal/qcache"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/vm"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/parser"
	"xpathcomplexity/internal/xpath/rewrite"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Document is a parsed XML document.
	Document = xmltree.Document
	// Node is a document node.
	Node = xmltree.Node
	// Value is an XPath 1.0 value: NodeSet, Boolean, Number or String.
	Value = value.Value
	// NodeSet is a document-ordered set of nodes.
	NodeSet = value.NodeSet
	// Boolean is an XPath boolean value.
	Boolean = value.Boolean
	// Number is an XPath number value.
	Number = value.Number
	// String is an XPath string value.
	String = value.String
	// Context is the XPath evaluation context (node, position, size).
	Context = evalctx.Context
	// Counter counts evaluator operations (see EvalOptions).
	Counter = evalctx.Counter
	// Fragment is a Figure 1 language fragment.
	Fragment = fragment.Fragment
	// Classification is the result of fragment analysis.
	Classification = fragment.Classification
	// Metrics is a registry of named atomic counters, gauges and
	// histograms filled by the engines (see EvalOptions.Metrics).
	Metrics = obs.Metrics
	// MetricsSnapshot is the frozen state of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// TraceSink receives structured per-subexpression trace events
	// (see EvalOptions.Trace).
	TraceSink = obs.TraceSink
	// TraceEvent is one structured enter/exit trace record.
	TraceEvent = obs.Event
	// RingSink is a bounded flight-recorder TraceSink.
	RingSink = obs.RingSink
	// NDJSONSink streams trace events as newline-delimited JSON.
	NDJSONSink = obs.NDJSONSink
	// Profile is a TraceSink aggregating events into per-subexpression
	// rows; ExplainAnalyze uses it internally.
	Profile = obs.Profile
	// ProfileRow is one aggregated profile row.
	ProfileRow = obs.ProfileRow
	// ResultCache is a shared, bounded evaluation-result cache keyed by
	// (document fingerprint, query, engine, context, result-visible
	// options). Attach one via EvalOptions.Cache; see docs/CACHING.md.
	ResultCache = qcache.Cache
	// ResultCacheStats is a point-in-time summary of a ResultCache.
	ResultCacheStats = qcache.Stats
	// FlightRecorder is the bounded per-evaluation flight recorder:
	// slow-query capture over a threshold, reservoir sampling for the
	// rest. Attach one via EvalOptions.Flight; see docs/OBSERVABILITY.md.
	FlightRecorder = flight.Recorder
	// FlightRecorderConfig bounds a FlightRecorder (capacities,
	// slow-query threshold).
	FlightRecorderConfig = flight.Config
	// FlightRecord is one recorded evaluation.
	FlightRecord = flight.Record
	// FlightStats is a point-in-time summary of a FlightRecorder.
	FlightStats = flight.Stats
)

// NewResultCache creates a result cache bounded to at most maxEntries
// entries and maxBytes of estimated value memory; non-positive arguments
// select the package defaults. The cache is safe for concurrent use and
// may be shared across queries, documents, goroutines and EvalBatch
// workers.
func NewResultCache(maxEntries int, maxBytes int64) *ResultCache {
	return qcache.New(maxEntries, maxBytes)
}

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewFlightRecorder creates a flight recorder (zero config fields take
// the package defaults: a 256-record reservoir, a 64-record slow ring,
// a 10ms slow threshold).
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder { return flight.New(cfg) }

// NewRingSink creates a trace sink retaining the last capacity events.
func NewRingSink(capacity int) *RingSink { return obs.NewRingSink(capacity) }

// NewNDJSONSink creates a trace sink writing one JSON line per event to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return obs.NewNDJSONSink(w) }

// NewProfile creates an empty aggregation profile.
func NewProfile() *Profile { return obs.NewProfile() }

// Fragment constants, re-exported from the classifier.
const (
	PF           = fragment.PF
	PositiveCore = fragment.PositiveCore
	PWF          = fragment.PWF
	Core         = fragment.Core
	WF           = fragment.WF
	PXPath       = fragment.PXPath
	FullXPath    = fragment.XPath
)

// ParseDocument reads an XML document.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString parses an XML document from a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// DocParseConfig bundles document parse options (whitespace handling,
// storage backend).
type DocParseConfig = xmltree.ParseConfig

// Storage backend names, as accepted by DocParseConfig.Backend,
// ParseDocumentBackend and the xpathd registry.
const (
	// BackendPointer is the classic pointer tree (the default).
	BackendPointer = xmltree.BackendPointer
	// BackendColumnar is the struct-of-arrays encoding: flat structural
	// arrays, interned name tables, one shared character-data blob —
	// several times smaller at rest, identical evaluation semantics.
	BackendColumnar = xmltree.BackendColumnar
)

// ParseDocumentWith parses an XML document under the given configuration.
func ParseDocumentWith(r io.Reader, cfg DocParseConfig) (*Document, error) {
	return xmltree.ParseWith(r, cfg)
}

// ParseDocumentBackend parses an XML document into the named storage
// backend ("" selects the pointer default). Content, document order and
// Fingerprint are identical across backends, so result caches and
// registry deduplication work regardless of encoding.
func ParseDocumentBackend(r io.Reader, backend string) (*Document, error) {
	return xmltree.ParseWith(r, xmltree.ParseConfig{Backend: backend})
}

// CompactDocument returns a columnar-backed equivalent of the document
// (the document itself when already columnar). Useful to convert a
// built or parsed tree before registering it with a long-lived registry.
func CompactDocument(d *Document) *Document { return xmltree.Compact(d) }

// ValidBackend reports whether name selects a known storage backend
// ("" selects the pointer default).
func ValidBackend(name string) bool { return xmltree.ValidBackend(name) }

// Backends lists the selectable document storage backends.
func Backends() []string { return xmltree.Backends() }

// Engine selects an evaluation strategy.
type Engine int

// The available engines.
const (
	// EngineAuto evaluates on the engine the query's plan binds to, once
	// per query (see Compiled): the bytecode VM for everything it
	// compiles, the linear-time engine for the rest of Core XPath and
	// the context-value-table engine otherwise. Traced runs use the tree
	// engine the fragment recommends.
	EngineAuto Engine = iota
	// EngineNaive is the exponential baseline.
	EngineNaive
	// EngineCVT is the polynomial dynamic-programming evaluator.
	EngineCVT
	// EngineCoreLinear is the O(|D|·|Q|) Core XPath evaluator.
	EngineCoreLinear
	// EngineNAuxPDA is the LOGCFL certificate-checking evaluator.
	EngineNAuxPDA
	// EngineParallel is the multi-goroutine Core XPath evaluator.
	EngineParallel
	// EngineStreaming is the single-pass NFA evaluator for the downward
	// PF fragment (absolute, predicate-free child/descendant paths). It
	// rejects anything else with ErrNotStreamable. EngineAuto never
	// binds to it: on a resident document the VM serves the same paths
	// faster (EXP-VM3), so the NFA runs only when selected explicitly.
	EngineStreaming
	// EngineVM executes counting-fragment queries — Core XPath plus
	// positional predicates ([k], [last()], position()/last()
	// comparisons) on countable axes — together with path-versus-literal
	// comparisons ([city = 'Vienna'], [price >= 50]) and top-level
	// count()/sum(), compiled to flat bytecode (package internal/vm):
	// the corelinear algorithm with the per-evaluation interpretation
	// overhead — fragment checks, memo maps, node-test resolution —
	// moved to compile time, then peephole optimized. It rejects queries
	// outside the fragment with an error wrapping vm.ErrNotVM (vm.Reason
	// names the gap); EngineAuto binds to it whenever the rewritten plan
	// compiles.
	EngineVM
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineNaive:
		return "naive"
	case EngineCVT:
		return "cvt"
	case EngineCoreLinear:
		return "corelinear"
	case EngineNAuxPDA:
		return "nauxpda"
	case EngineParallel:
		return "parallel"
	case EngineStreaming:
		return "streaming"
	case EngineVM:
		return "vm"
	default:
		return "unknown"
	}
}

// EngineByName maps engine names (as printed by String) to Engines.
var EngineByName = map[string]Engine{
	"auto": EngineAuto, "naive": EngineNaive, "cvt": EngineCVT,
	"corelinear": EngineCoreLinear, "nauxpda": EngineNAuxPDA,
	"parallel": EngineParallel, "streaming": EngineStreaming,
	"vm": EngineVM,
}

// Typed evaluation errors. All are matchable with errors.Is; the
// concrete types carry detail (which limit, the recovered panic value).
var (
	// ErrCanceled reports an evaluation stopped by its context — an
	// explicit cancel or an expired deadline/Timeout. The concrete error
	// is a *CancelError wrapping the context's own error, so
	// errors.Is(err, context.DeadlineExceeded) distinguishes the two.
	ErrCanceled = evalctx.ErrCanceled
	// ErrBudgetExceeded reports an evaluation stopped by a resource
	// limit (MaxOps, MaxDepth or MaxNodeSet). The concrete error is a
	// *BudgetError naming the limit.
	ErrBudgetExceeded = evalctx.ErrBudgetExceeded
	// ErrNotStreamable reports a query outside the downward PF fragment
	// EngineStreaming supports.
	ErrNotStreamable = streaming.ErrNotStreamable
	// ErrEvalPanic reports a panic recovered at the public evaluation
	// boundary; the concrete error is a *PanicError.
	ErrEvalPanic = errors.New("panic during evaluation")
)

type (
	// BudgetError is the concrete resource-limit error; Limit is "ops",
	// "depth" or "node-set".
	BudgetError = evalctx.BudgetError
	// CancelError is the concrete cancellation error; it unwraps to the
	// context's error.
	CancelError = evalctx.CancelError
)

// PanicError is a panic recovered at the public Eval boundary, returned
// as an error so a malformed plan cannot crash a caller. It matches
// ErrEvalPanic with errors.Is.
type PanicError struct {
	// Query is the source text of the panicking query.
	Query string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("xpathcomplexity: panic evaluating %q: %v", e.Query, e.Value)
}

// Is matches the ErrEvalPanic sentinel.
func (e *PanicError) Is(target error) bool { return target == ErrEvalPanic }

// Query is a compiled, classified XPath query.
type Query struct {
	// Source is the original query text.
	Source string
	// Expr is the parsed syntax tree.
	Expr ast.Expr
	// Class is the Figure 1 classification.
	Class Classification

	// vmProg/vmErr memoize the bytecode lowering of Expr (EngineVM);
	// computed at most once per Query, so plan-cached queries carry
	// their bytecode alongside the AST.
	vmOnce sync.Once
	vmProg *vm.Program
	vmErr  error

	// streamProg/streamErr memoize the streaming-NFA lowering of Expr
	// (EngineStreaming) the same way.
	streamOnce sync.Once
	streamProg *streaming.Program
	streamErr  error

	// compiled memoizes bind(q): the engine-bound plan every EngineAuto
	// evaluation of this query runs through.
	planOnce sync.Once
	compiled *Compiled
}

// vmProgram lowers the query to EngineVM bytecode, once; subsequent
// calls (and every evaluation of a plan-cached query) reuse the program
// or the memoized rejection.
func (q *Query) vmProgram() (*vm.Program, error) {
	q.vmOnce.Do(func() {
		q.vmProg, q.vmErr = compileVM(q.Expr, vm.Options{})
	})
	return q.vmProg, q.vmErr
}

// compileVM lowers expr to bytecode. A predicate t[a and p] whose side
// p alone uses position() or last() is lowered as t[p][a]
// (rewrite.SplitPositionalConjunctions), so p ranks the step's list by
// itself and the VM runs it as one fused positional step. The split is
// the VM's alone: iterated positional predicates leave pWF, so the tree
// engines (nauxpda above all) keep evaluating the conjunction. When the
// split form does not compile, the query is lowered as written. A query
// without position() or last() skips the rewrite, which copies the
// whole AST.
func compileVM(expr ast.Expr, opts vm.Options) (*vm.Program, error) {
	if ast.UsesPositionOrLast(expr) {
		if split, changed := rewrite.SplitPositionalConjunctions(expr); changed {
			if prog, err := vm.CompileWith(split, opts); err == nil {
				return prog, nil
			}
		}
	}
	return vm.CompileWith(expr, opts)
}

// streamProgram lowers the query to the streaming NFA, once.
func (q *Query) streamProgram() (*streaming.Program, error) {
	q.streamOnce.Do(func() {
		q.streamProg, q.streamErr = streaming.Compile(q.Expr)
	})
	return q.streamProg, q.streamErr
}

// plan returns the query's engine-bound plan, binding it on first use.
// Prepare caches the same *Compiled, so an ad-hoc query and its prepared
// form resolve EngineAuto identically.
func (q *Query) plan() *Compiled {
	q.planOnce.Do(func() { q.compiled = bind(q) })
	return q.compiled
}

// Compile parses and classifies a query.
func Compile(query string) (*Query, error) {
	expr, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	return &Query{Source: query, Expr: expr, Class: fragment.Classify(expr)}, nil
}

// MustCompile is Compile, panicking on error.
func MustCompile(query string) *Query {
	q, err := Compile(query)
	if err != nil {
		panic(err)
	}
	return q
}

// Fragment returns the smallest Figure 1 fragment containing the query.
func (q *Query) Fragment() Fragment { return q.Class.Minimal }

// ComplexityClass returns the combined complexity of the query's
// fragment, per Figure 1.
func (q *Query) ComplexityClass() string { return q.Class.Minimal.ComplexityClass() }

// EvalOptions tune evaluation.
type EvalOptions struct {
	// Engine selects the strategy; EngineAuto uses the query's plan
	// binding.
	Engine Engine
	// Counter, when non-nil, accumulates elementary operation counts and
	// can enforce a budget.
	Counter *Counter
	// NegationBound is the bounded-negation depth for EngineNAuxPDA
	// (Theorem 5.9); 0 accepts only negation-free pXPath.
	NegationBound int
	// Workers bounds EngineParallel's and EvalBatch's goroutines
	// (0 = GOMAXPROCS).
	Workers int
	// DisableIndex evaluates without the per-document index (see the
	// README's Performance section): the cvt and corelinear engines fall
	// back to tree walks and full node-test scans, the seed behaviour.
	// Benchmarks and the differential fuzz suite use this as the cold
	// reference; production callers should leave it false.
	DisableIndex bool
	// Trace, when non-nil, receives paired enter/exit events for every
	// (subexpression, context) visit the selected engine makes: subexpr
	// id, context, result cardinality, operation delta and wall time.
	// See docs/OBSERVABILITY.md. When nil (the default), the engines pay
	// only a nil check and allocate nothing for tracing.
	Trace obs.TraceSink
	// Metrics, when non-nil, collects named engine counters, gauges and
	// histograms for the run (engine op totals, cvt table sizes,
	// corelinear frontier distribution, nauxpda certificate depth, index
	// build/reuse, ...). When nil, metrics cost nothing.
	Metrics *obs.Metrics
	// Context, when non-nil, cancels the evaluation cooperatively: the
	// engines poll it every few hundred operations and return an error
	// matching ErrCanceled. EvalBatch checks it per query.
	Context context.Context
	// Timeout, when positive, gives the evaluation a deadline that many
	// nanoseconds after it begins, polled by the resource guard on the
	// same operation cadence as Context; an expiry returns an error
	// matching both ErrCanceled and context.DeadlineExceeded, exactly as
	// a Context deadline would. In EvalBatch every query gets its own
	// deadline, not one shared across the batch.
	Timeout time.Duration
	// MaxOps bounds the elementary operations of one evaluation, in the
	// same units as Counter.Budget; exceeding it returns a *BudgetError
	// matching ErrBudgetExceeded. Unlike Counter.Budget it composes with
	// a shared Counter: the limit is per evaluation, not cumulative.
	MaxOps int64
	// MaxDepth bounds evaluator recursion depth (query nesting for the
	// tree engines, certificate-search depth for nauxpda).
	MaxDepth int64
	// MaxNodeSet bounds intermediate node-collection cardinality — the
	// naive engine's exponentially growing bags in particular.
	MaxNodeSet int
	// Cache, when non-nil, memoizes evaluation results. XPath answers are
	// pure functions of (document, query, context), so a repeated
	// evaluation can be served from the cache without running an engine;
	// concurrent identical evaluations are deduplicated to a single run.
	// Traced runs (Trace != nil) and node-less contexts bypass the cache,
	// and errors are never cached. The same cache may be shared freely
	// across goroutines and EvalBatch workers. See docs/CACHING.md.
	Cache *ResultCache
	// Flight, when non-nil, records every completed evaluation into the
	// bounded flight recorder: slow queries over its threshold are always
	// captured, the rest are reservoir-sampled. The same recorder may be
	// shared freely across goroutines and EvalBatch workers. When nil,
	// evaluation pays only a nil check. See docs/OBSERVABILITY.md.
	Flight *FlightRecorder
	// deadline is the monotonic instant Timeout expires, fixed as the
	// evaluation begins; guard is the resource guard assembled from the
	// fields above for an engine run. Both are set by Query.EvalOptions
	// only, never by callers.
	deadline time.Time
	guard    *evalctx.Guard
	// borrow marks a caller that only reads the result while it visits
	// it (VisitBatch): a result-cache hit may then hand over the cache's
	// stored value instead of a private copy.
	borrow bool
	// flight is the pooled per-evaluation flight state; set by
	// Query.EvalOptions only when Flight is attached.
	flight *flightEval
}

// flightEval is the per-evaluation scratch behind EvalOptions.Flight:
// which engine served and how the result cache participated. Instances
// are pooled; every field is re-initialized on checkout.
type flightEval struct {
	engine Engine
	cache  flight.CacheOutcome
	// ctr is the synthesized counter used when the caller attached none,
	// so Record.Ops is available without changing the engines' behaviour.
	// It is never reset — finishFlight charges the delta from ops0.
	ctr  Counter
	ops0 int64
}

var flightEvalPool = sync.Pool{New: func() any { return new(flightEval) }}

// newGuard builds the resource guard of one engine run from the public
// limit options and the deadline Query.EvalOptions derived from
// Timeout; nil when no limit is set. Only runs that reach an engine
// build one: a result-cache hit does no work to govern.
func (opts *EvalOptions) newGuard() *evalctx.Guard {
	if opts.Context == nil && opts.deadline.IsZero() &&
		opts.MaxOps <= 0 && opts.MaxDepth <= 0 && opts.MaxNodeSet <= 0 {
		return nil
	}
	return evalctx.NewGuard(opts.Context, evalctx.Limits{
		MaxOps:     opts.MaxOps,
		MaxDepth:   opts.MaxDepth,
		MaxNodeSet: opts.MaxNodeSet,
		Deadline:   opts.deadline,
	})
}

// Eval evaluates the query in the given context with default options.
func (q *Query) Eval(ctx Context) (Value, error) {
	return q.EvalOptions(ctx, EvalOptions{})
}

// EvalRoot evaluates the query from the document root.
func (q *Query) EvalRoot(d *Document) (Value, error) {
	return q.EvalOptions(evalctx.Root(d), EvalOptions{})
}

// resolveEngine maps EngineAuto to the fragment-recommended engine.
func (q *Query) resolveEngine(e Engine) Engine {
	if e != EngineAuto {
		return e
	}
	if q.Class.RecommendEngine() == fragment.EngineCoreLinear {
		return EngineCoreLinear
	}
	return EngineCVT
}

// EvalOptions evaluates the query with explicit options.
//
// Any panic escaping an engine is recovered here and returned as a
// *PanicError matching ErrEvalPanic, so a malformed plan cannot crash a
// caller; Compiled.EvalOptions and EvalBatch delegate here and share the
// recovery. When Context, Timeout or a Max* limit is set, the engines
// run under a resource guard and return errors matching ErrCanceled or
// ErrBudgetExceeded when a bound is hit.
//
// An untraced EngineAuto evaluation runs through the query's memoized
// plan binding (see Compiled), exactly as its prepared form would: same
// engine, same result-cache key, one flight record. Traced EngineAuto
// runs evaluate the query as written on the tree engine its fragment
// recommends, because the streaming NFA and the bytecode VM have no
// per-subexpression spans.
func (q *Query) EvalOptions(ctx Context, opts EvalOptions) (v Value, err error) {
	if opts.Engine == EngineAuto {
		if opts.Trace == nil {
			return q.plan().EvalOptions(ctx, opts)
		}
		opts.Engine = q.resolveEngine(EngineAuto)
	}
	var t0 time.Time
	if opts.Flight != nil {
		fe := flightEvalPool.Get().(*flightEval)
		fe.engine = opts.Engine
		fe.cache = flight.CacheNone
		if opts.Counter == nil {
			// Synthesize an ops counter so the record carries the engine's
			// operation count; fe.ops0 makes reuse of the pooled counter
			// safe without a reset.
			opts.Counter = &fe.ctr
		}
		fe.ops0 = opts.Counter.Ops()
		opts.flight = fe
		t0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Query: q.Source, Value: r, Stack: debug.Stack()}
			if opts.Metrics != nil {
				opts.Metrics.Counter("eval.panics").Inc()
			}
		}
		// Recording sits after the recover so panicking evaluations are
		// captured too (as ErrKind "failed" with the PanicError text).
		if opts.flight != nil {
			q.finishFlight(ctx, opts, t0, v, err)
			flightEvalPool.Put(opts.flight)
		}
	}()
	if opts.Timeout > 0 {
		opts.deadline = time.Now().Add(opts.Timeout)
	}
	// Fail before any work when the context is already dead or the
	// timeout expired on arrival.
	if cerr := evalctx.Canceled(opts.Context, opts.deadline); cerr != nil {
		obs.RecordOutcome(opts.Metrics, cerr)
		return nil, cerr
	}
	if q.cacheEligible(ctx, opts) {
		// A hit returns without running an engine: no operations are
		// charged to Counter or a guard, and the caller receives a
		// private copy of the cached value — or, for a borrowing
		// caller, the cache's own immutable one. Errors are classified
		// inside Do and never admitted; concurrent identical evaluations
		// share one engine run (singleflight).
		if opts.flight != nil {
			// Assume a hit; the leader closure flips it when the engine
			// actually runs. Followers that join an in-flight run record
			// a hit too — they did no engine work.
			opts.flight.cache = flight.CacheHit
		}
		leader := func() (Value, error) {
			if opts.flight != nil {
				opts.flight.cache = flight.CacheMiss
			}
			return q.evalUncached(ctx, opts)
		}
		key, doc := q.cacheKey(ctx, opts), ctx.Node.Document()
		if opts.borrow {
			v, err = opts.Cache.DoBorrowed(key, doc, opts.Metrics, leader)
		} else {
			v, err = opts.Cache.Do(key, doc, opts.Metrics, leader)
		}
	} else {
		if opts.Cache != nil {
			if opts.flight != nil {
				if opts.Trace != nil {
					opts.flight.cache = flight.CacheBypassTraced
				} else {
					opts.flight.cache = flight.CacheBypassNoNode
				}
			}
			if opts.Trace != nil && opts.Metrics != nil {
				// Traced runs must execute for real — the sink's spans are the
				// point — so they bypass the cache in both directions.
				opts.Metrics.Counter(qcache.MetricBypassTraced).Inc()
			}
		}
		v, err = q.evalUncached(ctx, opts)
	}
	if opts.Metrics != nil {
		if ctx.Node != nil {
			recordIndexMetrics(opts.Metrics, ctx.Node.Document())
		}
		obs.RecordOutcome(opts.Metrics, err)
	}
	return v, err
}

// finishFlight builds the flight Record for one completed evaluation
// and hands it to the recorder. It runs inside Query.EvalOptions'
// deferred recovery, so panicking runs are recorded as failures. The
// Record copies only scalars and strings that outlive the evaluation
// (q.Source, engine and fragment names) — never node sets or pooled
// scratch — so retained records cannot be mutated by later runs.
func (q *Query) finishFlight(ctx Context, opts EvalOptions, t0 time.Time, v Value, err error) {
	fe := opts.flight
	wall := time.Since(t0)
	rec := flight.Record{
		Unix:     t0.UnixNano() + int64(wall),
		Query:    q.Source,
		Engine:   fe.engine.String(),
		Fragment: q.Class.Minimal.String(),
		Wall:     wall,
		Ops:      opts.Counter.Ops() - fe.ops0,
		Card:     obs.Cardinality(v),
		Cache:    fe.cache,
	}
	if err != nil {
		rec.Err = err.Error()
		rec.ErrKind = flight.ErrKind(err)
		// A failed evaluation has no result: whatever v holds is at best a
		// partial value (a canceled batch tail, a budget-killed node set).
		// Recording its cardinality would present the partial answer as
		// the evaluation's outcome, so errors always record Card -1.
		rec.Card = -1
	}
	opts.Flight.Observe(rec)
}

// cacheEligible reports whether this evaluation can go through
// opts.Cache: a cache must be attached, the run must not be traced (the
// sink needs real engine spans), and the context must carry a node (the
// document fingerprint anchors the key).
func (q *Query) cacheEligible(ctx Context, opts EvalOptions) bool {
	return opts.Cache != nil && opts.Trace == nil && ctx.Node != nil
}

// cacheKey builds the result-cache key for this evaluation: everything
// that the answer is a function of — document content, query text, the
// engine that runs (EngineAuto is resolved by now), the evaluation
// context, and the two result-visible options (NegationBound moves the
// nauxpda fragment boundary; DisableIndex keeps cold and cached index
// behaviour aligned).
// Budgets, counters, metrics, workers and timeouts are deliberately
// excluded: they change how an evaluation runs, never what it returns.
func (q *Query) cacheKey(ctx Context, opts EvalOptions) qcache.Key {
	return qcache.Key{
		DocFP:         ctx.Node.Document().Fingerprint(),
		Plan:          q.Source,
		Engine:        opts.Engine.String(),
		CtxOrd:        int(ctx.Node.Ord),
		CtxPos:        ctx.Pos,
		CtxSize:       ctx.Size,
		NegationBound: opts.NegationBound,
		DisableIndex:  opts.DisableIndex,
	}
}

// evalUncached dispatches to the engines with the cache out of the
// picture; the cache's singleflight leader and every cache-ineligible
// evaluation land here. The engine is always explicit by now:
// EvalOptions resolves EngineAuto before it gets this far.
func (q *Query) evalUncached(ctx Context, opts EvalOptions) (Value, error) {
	opts.guard = opts.newGuard()
	var tr *obs.Tracer
	if opts.Trace != nil {
		tr = obs.NewTracer(opts.Engine.String(), q.Expr, opts.Trace)
	}
	switch opts.Engine {
	case EngineNaive:
		return naive.EvaluateOptions(q.Expr, ctx, naive.Options{
			Counter: opts.Counter, Tracer: tr, Metrics: opts.Metrics,
			Guard: opts.guard,
		})
	case EngineCVT:
		return cvt.EvaluateOptions(q.Expr, ctx, cvt.Options{
			Counter: opts.Counter, DisableIndex: opts.DisableIndex,
			Tracer: tr, Metrics: opts.Metrics, Guard: opts.guard,
		})
	case EngineCoreLinear:
		return corelinear.EvaluateOptions(q.Expr, ctx, corelinear.Options{
			Counter: opts.Counter, DisableIndex: opts.DisableIndex,
			Tracer: tr, Metrics: opts.Metrics, Guard: opts.guard,
		})
	case EngineNAuxPDA:
		return nauxpda.Evaluate(q.Expr, ctx, nauxpda.Options{
			Limits:  nauxpda.Limits{NegationDepth: opts.NegationBound},
			Counter: opts.Counter, Tracer: tr, Metrics: opts.Metrics,
			Guard: opts.guard,
		})
	case EngineParallel:
		return parallel.Evaluate(q.Expr, ctx, parallel.Options{
			Workers: opts.Workers,
			Counter: opts.Counter, Tracer: tr, Metrics: opts.Metrics,
			Guard: opts.guard,
		})
	case EngineStreaming:
		return q.evalStreaming(ctx, opts, tr)
	case EngineVM:
		return q.evalVM(ctx, opts, tr)
	default:
		return nil, fmt.Errorf("xpathcomplexity: unknown engine %d", int(opts.Engine))
	}
}

// evalStreaming runs the query's memoized streaming NFA over the context
// document's tree (Program.EvalTree), charging one op per visited node
// so counter/metrics reconciliation matches the other engines.
func (q *Query) evalStreaming(ctx Context, opts EvalOptions, tr *obs.Tracer) (Value, error) {
	prog, err := q.streamProgram()
	if err != nil {
		return nil, err
	}
	if ctx.Node == nil {
		return nil, fmt.Errorf("streaming: absolute path with no context document")
	}
	ctr := opts.Counter
	if ctr == nil && (opts.Metrics != nil || tr != nil) {
		// Instrumentation needs a counter to measure op deltas; synthesize
		// a private one so metrics reconcile even without a caller counter.
		ctr = new(evalctx.Counter)
	}
	start := ctr.Ops()
	var sp obs.Span
	if tr != nil {
		sp = tr.Enter(q.Expr, ctx, ctr)
	}
	v, err := prog.EvalTree(ctx.Node.Document(), ctr, opts.guard)
	if tr != nil {
		tr.Exit(sp, v, ctr)
	}
	if m := opts.Metrics; m != nil {
		m.Counter("engine.streaming.ops").Add(ctr.Ops() - start)
		m.Counter("engine.streaming.evals").Inc()
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// evalVM runs the query's memoized bytecode program. The program itself
// mirrors the corelinear evaluator step for step (same results, same
// operation charges), so counters, guards, metrics and the result cache
// all see an interchangeable engine. A tracer receives one top-level
// span: the bytecode is flat and has no per-subexpression recursion.
func (q *Query) evalVM(ctx Context, opts EvalOptions, tr *obs.Tracer) (Value, error) {
	prog, err := q.vmProgram()
	if err != nil {
		return nil, err
	}
	return prog.Run(ctx, vm.RunOptions{
		Counter: opts.Counter, DisableIndex: opts.DisableIndex,
		Tracer: tr, Root: q.Expr, Metrics: opts.Metrics, Guard: opts.guard,
	})
}

// recordIndexMetrics copies the document's native index statistics into
// the registry as absolute-valued gauges (xmltree sits below the
// observability layer and cannot record them itself).
func recordIndexMetrics(m *obs.Metrics, d *Document) {
	st := d.IndexStats()
	m.Gauge("index.builds").SetMax(st.Builds)
	m.Gauge("index.reuses").SetMax(st.Reuses)
	m.Gauge("index.build_nanos").SetMax(st.BuildNanos)
}

// Select evaluates a node-set query from the document root.
func (q *Query) Select(d *Document) (NodeSet, error) {
	v, err := q.EvalRoot(d)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpathcomplexity: query %q returned %s, not a node-set", q.Source, v.Kind())
	}
	return ns, nil
}

// Matches decides whether node n is in the query's result when evaluated
// from the document root — the Singleton-Success problem (Definition 5.3).
// For pWF/pXPath queries this uses the LOGCFL decision procedure, which
// never materializes node sets; queries that only miss the fragment by a
// position-free iterated predicate are first folded per Remark 5.2
// (χ::t[e1][e2] ≡ χ::t[e1 and e2]); other fragments fall back to
// evaluation.
func (q *Query) Matches(n *Node) (bool, error) {
	expr := q.Expr
	cls := q.Class
	if cls.RecommendDecisionEngine() != fragment.EngineNAuxPDA {
		if folded, changed := rewrite.FoldIteratedPredicates(expr); changed {
			if c2 := fragment.Classify(folded); c2.RecommendDecisionEngine() == fragment.EngineNAuxPDA {
				expr, cls = folded, c2
			}
		}
	}
	if cls.RecommendDecisionEngine() == fragment.EngineNAuxPDA {
		return nauxpda.SingletonSuccess(expr, evalctx.Root(n.Document()),
			value.NewNodeSet(n), nauxpda.Options{NormalizeNegation: true})
	}
	ns, err := q.Select(n.Document())
	if err != nil {
		return false, err
	}
	return ns.Contains(n), nil
}

// Why renders the accepting certificate for node n's membership in the
// query result — the instantiated Table 1 derivation whose polynomial
// size is the substance of the LOGCFL upper bound — or an explanation
// that no certificate exists. Available for queries in the pWF/pXPath
// fragment (after the Remark 5.2 fold), which is where the certificate
// semantics is defined.
func (q *Query) Why(n *Node) (string, error) {
	expr := q.Expr
	if folded, changed := rewrite.FoldIteratedPredicates(expr); changed {
		expr = folded
	}
	return nauxpda.WhyMember(expr, evalctx.Root(n.Document()), n,
		nauxpda.Options{NormalizeNegation: true, Limits: nauxpda.Limits{NegationDepth: 1}})
}

// ResultEquals decides the classical Success problem the paper defines
// alongside Singleton-Success (Definition 5.3): "given a database, a
// query, and a query result, to decide whether the given query result is
// correct". The query is evaluated with the bound EngineAuto engine and the
// result compared for deep equality (node-sets element-wise in document
// order; NaN equals NaN).
func (q *Query) ResultEquals(ctx Context, want Value) (bool, error) {
	got, err := q.Eval(ctx)
	if err != nil {
		return false, err
	}
	return value.Equal(got, want), nil
}

// RootContext returns the canonical evaluation context of a document.
func RootContext(d *Document) Context { return evalctx.Root(d) }

// At returns an evaluation context focused on a node.
func At(n *Node) Context { return evalctx.At(n) }
