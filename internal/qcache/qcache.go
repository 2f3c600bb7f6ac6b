// Package qcache is the shared result cache of the evaluation stack: a
// concurrency-safe, bounded (entry count + byte budget, LRU) cache of
// evaluation results keyed by (document fingerprint, plan identity,
// context, effective options), with singleflight deduplication so N
// concurrent identical queries trigger exactly one evaluation.
//
// The cache is the operational form of the paper's purity argument: an
// XPath answer is a pure function of (document, query, context) — the
// context-value table of Proposition 2.7 is itself a memoization over
// exactly this key — so an unchanged document may serve a repeated
// identical query in O(1) instead of another full evaluation. It sits
// one layer above the plan cache of the facade (which removes repeated
// parsing/binding); this layer removes the evaluation itself.
//
// Correctness rests on three rules:
//
//   - Documents are identified by content fingerprint
//     (xmltree.Document.Fingerprint), so a rebuilt or mutated-and-
//     renumbered document can never be served a stale answer: its
//     fingerprint changed, so its keys miss. InvalidateDocument drops a
//     document's entries eagerly for callers that want the bytes back.
//   - Values are deep-copied on admission and on every hit. The engines
//     recycle scratch memory through pools (see internal/nodeset), so
//     the cache never retains or hands out a buffer an engine might
//     reuse; callers own what they get, the cache owns what it stores.
//     A stored value is never modified after admission, so the copy of
//     a hit runs outside the cache lock. DoBorrowed is the one
//     exception to the copies, for callers that only read a result
//     while they hold it: they get the stored value itself.
//   - Errors are never cached. Classify types the non-cacheable
//     outcomes (cancellation, resource budgets, other failures) so
//     admission bypasses are observable per class; a transient verdict
//     like a deadline must not poison the key for later callers.
package qcache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
)

// Metric names recorded by the cache into a caller's obs registry.
const (
	// MetricHit counts lookups served from the cache.
	MetricHit = "cache.hit"
	// MetricMiss counts lookups that ran the evaluation.
	MetricMiss = "cache.miss"
	// MetricEvict counts entries dropped to the entry or byte bound.
	MetricEvict = "cache.evict"
	// MetricInflightWait counts lookups that joined an in-flight
	// identical evaluation instead of starting their own.
	MetricInflightWait = "cache.inflight_wait"
	// MetricBytes is the gauge of bytes currently held by the cache.
	MetricBytes = "cache.bytes"
	// MetricBypassCanceled, MetricBypassBudget and MetricBypassError
	// count evaluations whose outcome was not admitted, by Classify
	// class.
	MetricBypassCanceled = "cache.bypass.canceled"
	MetricBypassBudget   = "cache.bypass.budget"
	MetricBypassError    = "cache.bypass.error"
	// MetricBypassOversize counts successful results too large for the
	// cache's byte budget to ever hold.
	MetricBypassOversize = "cache.bypass.oversize"
	// MetricBypassTraced counts evaluations that skipped the cache
	// entirely because a trace sink was attached (recorded by the
	// facade, not by Do).
	MetricBypassTraced = "cache.bypass.traced"
)

// Key identifies one cached result: the purity key (document content,
// plan, context) plus the result-affecting evaluation options. Two
// lookups with equal Keys are guaranteed the same answer, so one may
// serve the other.
type Key struct {
	// DocFP is the document content fingerprint
	// (xmltree.Document.Fingerprint).
	DocFP uint64
	// Plan is the compiled-plan identity: the query source text. The
	// facade's plan rewrites are semantics-preserving (they guard
	// themselves against positional predicates), so source text is a
	// sound identity for the answer even when the bound plans differ.
	Plan string
	// Engine is the engine binding the caller requested, before auto
	// resolution ("auto" keys separately from an explicit engine: the
	// engines agree on answers, but keeping bindings distinct keeps
	// every entry attributable to the run that produced it).
	Engine string
	// CtxOrd is the context node's document-order index; CtxPos and
	// CtxSize are the context position and size.
	CtxOrd, CtxPos, CtxSize int
	// NegationBound and DisableIndex are the remaining result-visible
	// evaluation options (NegationBound moves the nauxpda fragment
	// boundary; DisableIndex is result-invariant but kept so cached and
	// uncached baselines never share entries in benchmarks).
	NegationBound int
	DisableIndex  bool
}

// entry is one admitted result. val is owned by the cache (admitted as
// a private deep copy, or a borrowing leader's own result), never
// modified after admission, and copied again on every owned hit.
type entry struct {
	key   Key
	val   value.Value
	bytes int64
	el    *list.Element // the entry's slot in the LRU order
	// docPrev/docNext chain the entries of one document fingerprint.
	docPrev, docNext *entry
}

// call is one in-flight evaluation other lookups of the same key wait
// on. val is the admitted cache-owned copy (nil when err is set or the
// result was not admissible).
type call struct {
	// done is made by the first waiter, under Cache.mu, and closed by
	// the leader when it settles. A call nobody waited on never has one:
	// the leader recycles it, so an uncontended miss allocates neither.
	done chan struct{}
	val  value.Value
	err  error
}

// maxFreeCalls bounds the recycled calls a cache keeps.
const maxFreeCalls = 64

// Cache is a bounded shared result cache. Construct with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	order      *list.List // front = most recently used; values are *entry
	entries    map[Key]*list.Element
	docs       map[uint64]*entry // head of each fingerprint's entry chain
	inflight   map[Key]*call
	freeCalls  []*call // settled calls nobody waited on, for reuse
	// gaugesOn is the registry RegisterGauges last attached to.
	gaugesOn atomic.Pointer[obs.Metrics]

	hits, misses, evictions, inflightWaits, admissions, invalidations int64
}

// DefaultMaxEntries and DefaultMaxBytes are the bounds New applies to
// non-positive arguments.
const (
	DefaultMaxEntries = 1024
	DefaultMaxBytes   = 8 << 20
)

// New creates a cache bounded by maxEntries results and maxBytes of
// estimated result payload. Non-positive bounds take the defaults.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[Key]*list.Element),
		docs:       make(map[uint64]*entry),
		inflight:   make(map[Key]*call),
	}
}

// Outcome classifies how an evaluation ended for admission purposes.
type Outcome int

// The admission classes. Only OutcomeCacheable results are stored:
// cancellations and budget verdicts are one caller's stop request, not
// a property of the answer, and other errors are kept cheap to retry
// rather than pinned into the cache.
const (
	// OutcomeCacheable: a successful evaluation; admitted.
	OutcomeCacheable Outcome = iota
	// OutcomeCanceled: stopped by context cancellation or deadline.
	OutcomeCanceled
	// OutcomeBudget: stopped by a resource limit (ops/depth/node-set,
	// or the legacy Counter budget).
	OutcomeBudget
	// OutcomeFailed: any other evaluation error.
	OutcomeFailed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCacheable:
		return "cacheable"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeBudget:
		return "budget"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Classify types an evaluation outcome for admission: nil errors are
// cacheable, guard verdicts map to their class, everything else is a
// plain failure. All non-cacheable classes bypass admission and are
// counted under the matching cache.bypass.* metric.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeCacheable
	case errors.Is(err, evalctx.ErrCanceled):
		return OutcomeCanceled
	case evalctx.IsResourceError(err):
		return OutcomeBudget
	default:
		return OutcomeFailed
	}
}

// Do looks the key up and returns a private copy of the cached value on
// a hit. On a miss it runs eval exactly once across all concurrent
// callers of the same key (singleflight): the first caller becomes the
// leader, everyone else waits and shares a successful leader's answer.
// A leader error is returned to the leader only — waiters retry the
// lookup, so one caller's deadline or budget verdict never becomes
// another's, and errors are never cached.
//
// doc is the document the caller is evaluating against; served node-set
// values are remapped into it by document-order index when the admitted
// entry came from a different (content-identical) document, so callers
// always receive nodes of their own tree. m may be nil.
func (c *Cache) Do(key Key, doc *xmltree.Document, m *obs.Metrics, eval func() (value.Value, error)) (value.Value, error) {
	return c.do(key, doc, m, false, eval)
}

// DoBorrowed is Do for a caller that only reads the value it gets back
// and must not modify it. A hit, or a wait on an in-flight identical
// evaluation, returns the stored value itself instead of a copy (a copy
// only when its nodes must be remapped into doc), and a leader's own
// result is admitted without copying it, since the caller will not
// modify it either. The returned value stays valid after the call.
func (c *Cache) DoBorrowed(key Key, doc *xmltree.Document, m *obs.Metrics, eval func() (value.Value, error)) (value.Value, error) {
	return c.do(key, doc, m, true, eval)
}

func (c *Cache) do(key Key, doc *xmltree.Document, m *obs.Metrics, borrow bool, eval func() (value.Value, error)) (value.Value, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			stored := el.Value.(*entry).val
			c.mu.Unlock()
			m.Counter(MetricHit).Inc()
			return serve(stored, doc, borrow), nil
		}
		if cl, ok := c.inflight[key]; ok {
			c.inflightWaits++
			if cl.done == nil {
				cl.done = make(chan struct{})
			}
			done := cl.done
			c.mu.Unlock()
			m.Counter(MetricInflightWait).Inc()
			<-done
			if cl.err == nil && cl.val != nil {
				return serve(cl.val, doc, borrow), nil
			}
			// The leader failed (or its result was not admissible as a
			// shared value); retry the lookup. Deterministic failures
			// degrade to per-caller evaluation, never to a cached error.
			continue
		}
		var cl *call
		if n := len(c.freeCalls); n > 0 {
			cl = c.freeCalls[n-1]
			c.freeCalls = c.freeCalls[:n-1]
		} else {
			cl = new(call)
		}
		c.inflight[key] = cl
		c.misses++
		c.mu.Unlock()
		m.Counter(MetricMiss).Inc()
		return c.lead(key, doc, m, cl, borrow, eval)
	}
}

// serve hands a stored value to a caller: a private copy, or for a
// borrowing caller the stored value itself when its nodes are already
// doc's.
func serve(stored value.Value, doc *xmltree.Document, borrow bool) value.Value {
	if borrow && ownedBy(stored, doc) {
		return stored
	}
	return copyValue(stored, doc)
}

// ownedBy reports whether v needs no remapping to be served against
// doc: scalars, empty node-sets, and node-sets of doc's own nodes (the
// nodes of one set all belong to one document).
func ownedBy(v value.Value, doc *xmltree.Document) bool {
	ns, ok := v.(value.NodeSet)
	return !ok || len(ns) == 0 || doc == nil || ns[0].Document() == doc
}

// lead runs the evaluation as the singleflight leader and settles the
// call: admit on success, publish the outcome, wake the waiters. The
// inflight slot is cleared even when eval panics (the facade recovers
// panics above the cache), so a crashing plan cannot wedge the key.
func (c *Cache) lead(key Key, doc *xmltree.Document, m *obs.Metrics, cl *call, borrow bool, eval func() (value.Value, error)) (v value.Value, err error) {
	settled := false
	settle := func(admitted value.Value, e error) {
		settled = true
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.done != nil {
			cl.val, cl.err = admitted, e
			close(cl.done)
		} else if len(c.freeCalls) < maxFreeCalls {
			// Nobody waited and nobody can find it any more.
			c.freeCalls = append(c.freeCalls, cl)
		}
		c.mu.Unlock()
	}
	defer func() {
		if !settled { // eval panicked: fail the call and let waiters retry
			settle(nil, errPanicked)
		}
	}()

	v, err = eval()
	if out := Classify(err); out != OutcomeCacheable {
		m.Counter(bypassMetric(out)).Inc()
		settle(nil, err)
		return v, err
	}
	admitted := c.admit(key, v, doc, m, borrow)
	settle(admitted, nil)
	return v, nil
}

// errPanicked marks a leader evaluation that panicked; waiters treat it
// like any leader error and retry. It never escapes the package: the
// panic itself propagates to the facade's recovery.
var errPanicked = &panicSentinel{}

type panicSentinel struct{}

func (*panicSentinel) Error() string { return "qcache: leader evaluation panicked" }

// admit stores a private deep copy of v under key — v itself for a
// borrowing leader, which will not modify it — and returns what it
// stored (nil when the value exceeds the byte budget outright).
// Eviction runs inside the same critical section, so bounds hold at
// every instant.
func (c *Cache) admit(key Key, v value.Value, doc *xmltree.Document, m *obs.Metrics, borrow bool) value.Value {
	size := sizeOf(key, v)
	if size > c.maxBytes {
		m.Counter(MetricBypassOversize).Inc()
		return nil
	}
	stored := serve(v, doc, borrow)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Lost an admit race (a waiter-turned-leader after our lookup);
		// keep the incumbent.
		c.order.MoveToFront(el)
		bytes := c.bytes
		c.mu.Unlock()
		m.Gauge(MetricBytes).Set(bytes)
		return stored
	}
	e := &entry{key: key, val: stored, bytes: size, docNext: c.docs[key.DocFP]}
	if e.docNext != nil {
		e.docNext.docPrev = e
	}
	c.docs[key.DocFP] = e
	e.el = c.order.PushFront(e)
	c.entries[key] = e.el
	c.bytes += size
	c.admissions++
	evicted := 0
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		last := c.order.Back()
		if last == e.el && c.order.Len() == 1 {
			break // never evict the entry just admitted below budget
		}
		c.removeLocked(last)
		c.evictions++
		evicted++
	}
	bytes := c.bytes
	c.mu.Unlock()
	if evicted > 0 {
		m.Counter(MetricEvict).Add(int64(evicted))
	}
	m.Gauge(MetricBytes).Set(bytes)
	return stored
}

// removeLocked unlinks an element and its chain links; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	if e.docNext != nil {
		e.docNext.docPrev = e.docPrev
	}
	if e.docPrev != nil {
		e.docPrev.docNext = e.docNext
	} else if e.docNext != nil {
		c.docs[e.key.DocFP] = e.docNext
	} else {
		delete(c.docs, e.key.DocFP)
	}
}

// Contains reports whether the key currently has an admitted entry,
// without touching recency or statistics. ExplainAnalyze uses it to
// report the cache outcome of a run it had to evaluate fresh (traced
// runs bypass the cache).
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// InvalidateDocument drops every entry keyed to the given document
// fingerprint and returns how many were dropped. Content addressing
// already guarantees a changed document misses (its fingerprint
// changed); this reclaims the bytes of the old content's entries
// eagerly instead of waiting for LRU pressure, walking only that
// document's entry chain.
func (c *Cache) InvalidateDocument(fp uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.docs[fp]; e != nil; {
		next := e.docNext
		c.removeLocked(e.el)
		n++
		e = next
	}
	c.invalidations += int64(n)
	return n
}

// Clear drops every entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations += int64(c.order.Len())
	c.order.Init()
	c.entries = make(map[Key]*list.Element)
	c.docs = make(map[uint64]*entry)
	c.bytes = 0
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the estimated bytes currently held.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats is the cumulative activity of a Cache. The JSON form is served
// by the /debug/xpath/plans endpoint (internal/obs/httpobs).
type Stats struct {
	// Hits and Misses count Do lookups; InflightWaits counts lookups
	// that joined an in-flight evaluation (a subset of neither).
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	// Admissions counts stored results; Evictions counts entries
	// dropped to a bound; Invalidations counts entries dropped by
	// InvalidateDocument/Clear.
	Admissions    int64 `json:"admissions"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Size and Bytes are the current entry count and payload estimate.
	Size  int   `json:"size"`
	Bytes int64 `json:"bytes"`
}

// Stats returns the cache's cumulative counters and current size.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, InflightWaits: c.inflightWaits,
		Admissions: c.admissions, Evictions: c.evictions, Invalidations: c.invalidations,
		Size: c.order.Len(), Bytes: c.bytes,
	}
}

// RegisterGauges exposes the cache's statistics on m as gauges read at
// snapshot time: cache.size, cache.bytes, cache.hits_total,
// cache.misses_total, cache.evictions_total and
// cache.inflight_waits_total. They are exact on every scrape —
// including after InvalidateDocument or Clear shrink the cache — and
// no evaluation pays to push them. Registering the same registry again
// is a no-op costing one atomic load, so per-batch callers may call it
// freely.
func (c *Cache) RegisterGauges(m *obs.Metrics) {
	if m == nil || c.gaugesOn.Load() == m {
		return
	}
	m.GaugeFunc("cache.size", func() int64 { return int64(c.Stats().Size) })
	m.GaugeFunc(MetricBytes, func() int64 { return c.Stats().Bytes })
	m.GaugeFunc("cache.hits_total", func() int64 { return c.Stats().Hits })
	m.GaugeFunc("cache.misses_total", func() int64 { return c.Stats().Misses })
	m.GaugeFunc("cache.evictions_total", func() int64 { return c.Stats().Evictions })
	m.GaugeFunc("cache.inflight_waits_total", func() int64 { return c.Stats().InflightWaits })
	c.gaugesOn.Store(m)
}

func bypassMetric(o Outcome) string {
	switch o {
	case OutcomeCanceled:
		return MetricBypassCanceled
	case OutcomeBudget:
		return MetricBypassBudget
	default:
		return MetricBypassError
	}
}

// copyValue returns a caller-owned copy of v. Scalars are immutable Go
// values and copy by assignment; node-sets get a fresh backing slice so
// neither side can observe the other's mutations, with each node
// remapped by document-order index when it belongs to a different
// (content-identical, by fingerprint keying) document than doc.
func copyValue(v value.Value, doc *xmltree.Document) value.Value {
	ns, ok := v.(value.NodeSet)
	if !ok {
		return v
	}
	out := make(value.NodeSet, len(ns))
	for i, n := range ns {
		if doc != nil && n.Document() != doc && int(n.Ord) < len(doc.Nodes) {
			out[i] = doc.Nodes[n.Ord]
		} else {
			out[i] = n
		}
	}
	return out
}

// sizeOf estimates the resident bytes of one entry: key overhead plus
// the value payload (8 bytes per node pointer, string length, a fixed
// header otherwise). An estimate is enough — the byte budget bounds
// growth, it does not account the heap.
func sizeOf(key Key, v value.Value) int64 {
	const entryOverhead = 160 // entry + list element + map slot, roughly
	size := int64(entryOverhead + len(key.Plan) + len(key.Engine))
	switch x := v.(type) {
	case value.NodeSet:
		size += int64(24 + 8*len(x))
	case value.String:
		size += int64(16 + len(x))
	default:
		size += 16
	}
	return size
}
