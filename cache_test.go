package xpathcomplexity

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xpathcomplexity/internal/qcache"
	"xpathcomplexity/internal/xmltree"
)

func cacheTestDoc(t *testing.T) *Document {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return xmltree.RandomDocument(rng, xmltree.GenConfig{
		Nodes: 2000, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"},
		TextProb: 0.2, AttrProb: 0.2,
	})
}

// A cache hit must not run an engine at all: zero operations charged to
// the caller's Counter, and a per-evaluation MaxOps budget that would
// kill the cold run is never consulted (the PR 3 guard seam).
func TestCacheHitChargesZeroOps(t *testing.T) {
	d := cacheTestDoc(t)
	q := MustCompile("//a[b]/c")
	rc := NewResultCache(0, 0)
	ctx := RootContext(d)

	ctr := &Counter{}
	cold, err := q.EvalOptions(ctx, EvalOptions{Cache: rc, Counter: ctr, Engine: EngineCVT})
	if err != nil {
		t.Fatal(err)
	}
	coldOps := ctr.Ops()
	if coldOps == 0 {
		t.Fatal("fixture: cold evaluation charged no operations")
	}

	// The same evaluation under a one-operation budget: cold it would
	// return ErrBudgetExceeded, warm it must succeed without charging.
	hit, err := q.EvalOptions(ctx, EvalOptions{
		Cache: rc, Counter: ctr, Engine: EngineCVT, MaxOps: 1,
	})
	if err != nil {
		t.Fatalf("warm evaluation under MaxOps=1 failed: %v", err)
	}
	if got := ctr.Ops(); got != coldOps {
		t.Fatalf("cache hit charged %d operations, want 0", got-coldOps)
	}
	if cv, cc := canonValue(hit), canonValue(cold); cv != cc {
		t.Fatalf("hit %s != cold %s", cv, cc)
	}
	// Sanity: the budget is real — without the cache the same limit kills
	// the evaluation.
	if _, err := q.EvalOptions(ctx, EvalOptions{Engine: EngineCVT, MaxOps: 1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("uncached MaxOps=1 run did not hit the budget: %v", err)
	}
}

// A value served from the cache must stay stable while later evaluations
// recycle the engines' pooled scratch (bitset arenas, node buffers from
// PR 4): if an arena-backed slice ever leaked through the cache, the
// churn below would rewrite the held result in place.
func TestCacheHitSurvivesScratchReuse(t *testing.T) {
	d := cacheTestDoc(t)
	q := MustCompile("//a[b]/c")
	rc := NewResultCache(0, 0)
	ctx := RootContext(d)
	opts := EvalOptions{Cache: rc, Engine: EngineCVT}

	if _, err := q.EvalOptions(ctx, opts); err != nil {
		t.Fatal(err)
	}
	held, err := q.EvalOptions(ctx, opts) // hit: the value we keep across churn
	if err != nil {
		t.Fatal(err)
	}
	if ns, ok := held.(NodeSet); !ok || len(ns) == 0 {
		t.Fatalf("fixture: want a non-empty node-set, got %s", canonValue(held))
	}
	before := canonValue(held)

	churn := []string{"//b[c]/d", "//d", "//c[d]", "//a//b", "//b[not(c)]", "//a[b and c]"}
	for round := 0; round < 30; round++ {
		cq := MustCompile(churn[round%len(churn)])
		if _, err := cq.EvalOptions(ctx, EvalOptions{Engine: EngineCVT}); err != nil {
			t.Fatal(err)
		}
	}

	if after := canonValue(held); after != before {
		t.Fatalf("held cache hit changed under scratch reuse: %s -> %s", before, after)
	}
	fresh, err := q.EvalOptions(ctx, EvalOptions{Engine: EngineCVT})
	if err != nil {
		t.Fatal(err)
	}
	if cf := canonValue(fresh); cf != before {
		t.Fatalf("held hit %s != fresh evaluation %s", before, cf)
	}
}

// N concurrent identical evaluations through one cache must collapse to
// exactly one engine run, observable through the cache statistics.
func TestCacheSingleflightThroughPublicAPI(t *testing.T) {
	d := cacheTestDoc(t)
	q := MustCompile("//a[b][c]")
	rc := NewResultCache(0, 0)
	ctx := RootContext(d)

	const callers = 12
	var wg sync.WaitGroup
	vals := make([]Value, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = q.EvalOptions(ctx, EvalOptions{Cache: rc})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ci, c0 := canonValue(vals[i]), canonValue(vals[0]); ci != c0 {
			t.Fatalf("caller %d got %s, caller 0 got %s", i, ci, c0)
		}
	}
	st := rc.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d concurrent identical evaluations ran %d engine evaluations, want 1: %+v",
			callers, st.Misses, st)
	}
	if st.Hits+st.InflightWaits != callers-1 {
		t.Fatalf("hits(%d)+waits(%d) != %d non-leader callers", st.Hits, st.InflightWaits, callers-1)
	}
}

// The cache's observability contract: hits and misses show up in the
// metrics registry, traced runs bypass with their own counter while the
// sink still sees real spans, and budget-killed evaluations are
// classified and never admitted.
func TestCacheMetricsAndBypass(t *testing.T) {
	d := cacheTestDoc(t)
	q := MustCompile("//a[b]/c")
	rc := NewResultCache(0, 0)
	ctx := RootContext(d)
	m := NewMetrics()

	for i := 0; i < 2; i++ { // miss, then hit
		if _, err := q.EvalOptions(ctx, EvalOptions{Cache: rc, Metrics: m}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	if s.Counter(qcache.MetricMiss) != 1 || s.Counter(qcache.MetricHit) != 1 {
		t.Fatalf("miss=%d hit=%d, want 1/1", s.Counter(qcache.MetricMiss), s.Counter(qcache.MetricHit))
	}

	// Traced run: bypass counter increments, the sink records real
	// spans, and the cache is not consulted (stats unchanged).
	stBefore := rc.Stats()
	sink := NewRingSink(256)
	if _, err := q.EvalOptions(ctx, EvalOptions{Cache: rc, Metrics: m, Trace: sink}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Counter(qcache.MetricBypassTraced); got != 1 {
		t.Fatalf("cache.bypass.traced = %d, want 1", got)
	}
	if len(sink.Events()) == 0 {
		t.Fatal("traced run produced no events — it must not be served from cache")
	}
	if st := rc.Stats(); st.Hits != stBefore.Hits || st.Misses != stBefore.Misses {
		t.Fatalf("traced run consulted the cache: %+v -> %+v", stBefore, st)
	}

	// Budget-killed evaluation: typed bypass, nothing admitted, and the
	// next unbudgeted run is a fresh miss (errors are never cached).
	rc2 := NewResultCache(0, 0)
	m2 := NewMetrics()
	if _, err := q.EvalOptions(ctx, EvalOptions{Cache: rc2, Metrics: m2, MaxOps: 1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	if got := m2.Snapshot().Counter(qcache.MetricBypassBudget); got != 1 {
		t.Fatalf("cache.bypass.budget = %d, want 1", got)
	}
	if rc2.Len() != 0 {
		t.Fatal("budget error was admitted to the cache")
	}
	if _, err := q.EvalOptions(ctx, EvalOptions{Cache: rc2, Metrics: m2}); err != nil {
		t.Fatal(err)
	}
	if st := rc2.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("recovery after budget bypass: %+v, want 2 misses and 1 entry", st)
	}
}

// Content-identical documents share cache entries through the
// fingerprint, and the served nodes belong to the asking document.
func TestCacheSharedAcrossIdenticalDocuments(t *testing.T) {
	const src = `<r><a><b/><c>x</c></a><a><c>y</c></a></r>`
	d1, err := ParseDocumentString(src)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDocumentString(src)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("//a[b]/c")
	rc := NewResultCache(0, 0)
	if _, err := q.EvalOptions(RootContext(d1), EvalOptions{Cache: rc}); err != nil {
		t.Fatal(err)
	}
	v, err := q.EvalOptions(RootContext(d2), EvalOptions{Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Hits != 1 {
		t.Fatalf("content-identical document did not hit: %+v", st)
	}
	for _, n := range v.(NodeSet) {
		if n.Document() != d2 {
			t.Fatalf("cache served node #%d owned by the wrong document", n.Ord)
		}
	}
}

// ExplainAnalyze reports the run's relationship to an attached cache;
// without one the report is unchanged (golden tests elsewhere rely on
// that). Ad-hoc and prepared analyses probe the key an untraced
// EngineAuto run uses, the bound engine's, not the traced tree engine's.
func TestExplainAnalyzeCacheOutcome(t *testing.T) {
	d := cacheTestDoc(t)
	ctx := RootContext(d)
	type analyzable interface {
		EvalOptions(Context, EvalOptions) (Value, error)
		ExplainAnalyzeOptions(Context, EvalOptions) (string, error)
	}
	for _, tc := range []struct {
		name string
		q    analyzable
	}{
		{"adhoc", MustCompile("//a[b]/c")},
		{"prepared", MustPrepare("//a[b]/c")},
	} {
		q, rc := tc.q, NewResultCache(0, 0)
		plain, err := q.ExplainAnalyzeOptions(ctx, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plain, "cache:") {
			t.Fatalf("%s: report mentions the cache with no cache attached", tc.name)
		}

		cold, err := q.ExplainAnalyzeOptions(ctx, EvalOptions{Cache: rc})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(cold, "would miss") {
			t.Fatalf("%s: cold analyzed report missing cache outcome:\n%s", tc.name, cold)
		}
		if _, err := q.EvalOptions(ctx, EvalOptions{Cache: rc}); err != nil { // populate
			t.Fatal(err)
		}
		warm, err := q.ExplainAnalyzeOptions(ctx, EvalOptions{Cache: rc})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(warm, "would hit") {
			t.Fatalf("%s: warm analyzed report missing cache outcome:\n%s", tc.name, warm)
		}
	}
}

// EvalBatch workers share one cache: duplicate queries in a batch
// collapse to hits/singleflight, a second identical batch is all hits,
// and the cache's statistics land in the batch metrics.
func TestEvalBatchSharedCache(t *testing.T) {
	d := cacheTestDoc(t)
	base := []string{"//a[b]/c", "//b[c]/d", "//d", "//a//b", "//c[d]", "//b[not(c)]"}
	var queries []string
	for i := 0; i < 5; i++ {
		queries = append(queries, base...)
	}
	rc := NewResultCache(0, 0)
	m := NewMetrics()

	ref := EvalBatch(d, queries, EvalOptions{})
	got := EvalBatch(d, queries, EvalOptions{Cache: rc, Metrics: m, Workers: 4})
	for i := range got {
		if ref[i].Err != nil || got[i].Err != nil {
			t.Fatalf("query %q: ref err %v, cached err %v", queries[i], ref[i].Err, got[i].Err)
		}
		if cg, cr := canonValue(got[i].Value), canonValue(ref[i].Value); cg != cr {
			t.Fatalf("query %q: cached batch %s != reference %s", queries[i], cg, cr)
		}
	}
	st := rc.Stats()
	if st.Misses != int64(len(base)) {
		t.Fatalf("first batch ran %d evaluations for %d distinct queries", st.Misses, len(base))
	}

	second := EvalBatch(d, queries, EvalOptions{Cache: rc, Workers: 4})
	for i := range second {
		if second[i].Err != nil {
			t.Fatal(second[i].Err)
		}
	}
	st2 := rc.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("second identical batch re-evaluated: misses %d -> %d", st.Misses, st2.Misses)
	}
	if st2.Hits-st.Hits < int64(len(queries)) {
		t.Fatalf("second batch hit only %d of %d lookups", st2.Hits-st.Hits, len(queries))
	}
	if s := m.Snapshot(); s.Gauge("cache.misses_total") == 0 {
		t.Fatal("batch metrics missing the cache statistics")
	}
}

// The -race seam: all batch workers share one cache while another
// goroutine invalidates and clears it continuously. Results must still
// match the uncached reference byte for byte.
func TestEvalBatchSharedCacheUnderInvalidation(t *testing.T) {
	d := cacheTestDoc(t)
	base := []string{"//a[b]/c", "//b[c]/d", "//d", "//a//b", "//c[d]", "//b[not(c)]"}
	var queries []string
	for i := 0; i < 6; i++ {
		queries = append(queries, base...)
	}
	ref := EvalBatch(d, queries, EvalOptions{})

	rc := NewResultCache(8, 1<<16) // tight bounds: evictions race with invalidation
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				rc.Clear()
			} else {
				rc.InvalidateDocument(d.Fingerprint())
			}
		}
	}()
	got := EvalBatch(d, queries, EvalOptions{Cache: rc, Workers: 4})
	close(stop)
	wg.Wait()
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("query %q: %v", queries[i], got[i].Err)
		}
		if cg, cr := canonValue(got[i].Value), canonValue(ref[i].Value); cg != cr {
			t.Fatalf("query %q under invalidation churn: %s != %s", queries[i], cg, cr)
		}
	}
}

// Callers may mutate what Eval returns; the cache must keep serving the
// correct answer afterwards (copy-on-hit and copy-on-admit).
func TestCacheCallerMutationIsolated(t *testing.T) {
	d := cacheTestDoc(t)
	q := MustCompile("//a[b]/c")
	rc := NewResultCache(0, 0)
	ctx := RootContext(d)

	first, err := q.EvalOptions(ctx, EvalOptions{Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	want := canonValue(first)
	if ns, ok := first.(NodeSet); ok && len(ns) > 0 {
		for i := range ns {
			ns[i] = d.Nodes[0] // clobber the admitted value's source slice
		}
	}
	second, err := q.EvalOptions(ctx, EvalOptions{Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonValue(second); got != want {
		t.Fatalf("caller mutation reached the cache: %s != %s", got, want)
	}
	if ns, ok := second.(NodeSet); ok && len(ns) > 0 {
		ns[0] = d.Nodes[0]
	}
	third, err := q.EvalOptions(ctx, EvalOptions{Cache: rc})
	if err != nil {
		t.Fatal(err)
	}
	if got := canonValue(third); got != want {
		t.Fatalf("hit mutation reached the cache: %s != %s", got, want)
	}
}
