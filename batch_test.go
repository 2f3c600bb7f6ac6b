package xpathcomplexity

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
)

var batchQueries = []string{
	"//a",
	"//b/c",
	"/descendant::a/child::b",
	"//a[b]",
	"//a[not(b)]/following-sibling::c",
	"count(//a)",
	"//c[position() = 1]",
	"string(//b)",
	"//a/ancestor::b",
	"//*[@id]",
	"//a | //b",
	"//a[b and c]",
}

func batchDoc(t testing.TB, seed int64, nodes int) *Document {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return xmltree.RandomDocument(rng, xmltree.GenConfig{
		Nodes: nodes, MaxFanout: 4, Tags: []string{"a", "b", "c"},
		TextProb: 0.2, AttrProb: 0.2,
	})
}

// EvalBatch must agree with evaluating each query sequentially through
// the plain Query API, including error positions, regardless of worker
// count. Run with -race this also exercises the shared index and plan
// cache under concurrency.
func TestEvalBatchMatchesSequential(t *testing.T) {
	d := batchDoc(t, 1, 400)
	queries := append([]string{}, batchQueries...)
	queries = append(queries, "//a[", "///") // compile errors stay in place
	var want []BatchResult
	for _, qs := range queries {
		r := BatchResult{Query: qs}
		q, err := Compile(qs)
		if err != nil {
			r.Err = err
		} else {
			r.Value, r.Err = q.EvalRoot(d)
		}
		want = append(want, r)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		got := EvalBatch(d, queries, EvalOptions{Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Query != queries[i] {
				t.Fatalf("workers=%d: result %d is for %q, want %q", workers, i, got[i].Query, queries[i])
			}
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d: query %q err = %v, want %v", workers, queries[i], got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			if !value.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("workers=%d: query %q: batch %s, sequential %s",
					workers, queries[i], got[i].Value, want[i].Value)
			}
		}
	}
}

// Many concurrent EvalBatch calls against distinct cold documents race
// on first index builds and on the default plan cache; under -race this
// checks both are safe, and the results must still be right.
func TestEvalBatchConcurrentDocuments(t *testing.T) {
	const docs = 8
	var wg sync.WaitGroup
	errs := make(chan error, docs)
	for i := 0; i < docs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := batchDoc(t, int64(100+i), 200)
			got := EvalBatch(d, batchQueries, EvalOptions{Workers: 4})
			for j, r := range got {
				if r.Err != nil {
					errs <- fmt.Errorf("doc %d query %q: %v", i, batchQueries[j], r.Err)
					return
				}
				q := MustCompile(batchQueries[j])
				want, err := q.EvalOptions(RootContext(d), EvalOptions{DisableIndex: true})
				if err != nil {
					errs <- err
					return
				}
				if !value.Equal(r.Value, want) {
					errs <- fmt.Errorf("doc %d query %q: indexed batch %s, cold %s",
						i, batchQueries[j], r.Value, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEvalBatchScratchReuse drives the engines' pooled scratch (bitset
// arenas, node buffers, memo tables — all recycled through sync.Pools)
// from many concurrent EvalBatch workers across several rounds, so pooled
// buffers migrate between workers and between documents of different
// sizes. Under -race (part of the `make guard-race` suite) this fails if
// a recycled buffer is ever visible to two evaluations at once; race
// detector aside, it pins the result-stability contract: a node-set
// handed to the caller must not change when later evaluations reuse the
// scratch that produced it.
func TestEvalBatchScratchReuse(t *testing.T) {
	docA := batchDoc(t, 7, 300)
	docB := batchDoc(t, 8, 120)
	ref := func(d *Document) []Value {
		out := make([]Value, len(batchQueries))
		for i, qs := range batchQueries {
			v, err := MustCompile(qs).EvalOptions(RootContext(d), EvalOptions{DisableIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	wantA, wantB := ref(docA), ref(docB)
	check := func(round int, got []BatchResult, want []Value, label string) {
		t.Helper()
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("round %d %s query %q: %v", round, label, batchQueries[i], got[i].Err)
			}
			if !value.Equal(got[i].Value, want[i]) {
				t.Fatalf("round %d %s query %q: got %s, want %s",
					round, label, batchQueries[i], got[i].Value, want[i])
			}
		}
	}
	// Round 0's results are retained and re-checked after every later
	// round: if an engine ever returned a view into pooled scratch, the
	// later rounds would scribble over it.
	var held []BatchResult
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		res := make([][]BatchResult, 2)
		for k, d := range []*Document{docA, docB} {
			wg.Add(1)
			go func(k int, d *Document) {
				defer wg.Done()
				res[k] = EvalBatch(d, batchQueries, EvalOptions{Workers: 8})
			}(k, d)
		}
		wg.Wait()
		check(round, res[0], wantA, "docA")
		check(round, res[1], wantB, "docB")
		if round == 0 {
			held = res[0]
		} else {
			check(round, held, wantA, "held round-0")
		}
	}
}

// Prepare must return the identical *Compiled for repeated calls (the
// whole point of the plan cache), and the cached plan must evaluate like
// a fresh compile.
func TestPrepareCachesPlans(t *testing.T) {
	c1 := MustPrepare("//a[b][c]")
	c2 := MustPrepare("//a[b][c]")
	if c1 != c2 {
		t.Fatal("Prepare returned distinct plans for the same query text")
	}
	d := batchDoc(t, 2, 150)
	got, err := c1.EvalRoot(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustCompile("//a[b][c]").EvalRoot(d)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("prepared plan: %s, fresh compile: %s", got, want)
	}
	if _, err := Prepare("//a["); err == nil {
		t.Fatal("Prepare accepted a syntax error")
	}
}

// The Remark 5.2 fold moves //a[b][c] into Core XPath, so a prepared
// plan binds the bytecode VM (the compiled form of the linear engine)
// even though the unrewritten query would not; the explicit-engine
// escape hatch keeps evaluating the original.
func TestPrepareBindsFoldedPlan(t *testing.T) {
	c := MustPrepare("//a[b][c]")
	if c.Bound != EngineVM {
		t.Fatalf("//a[b][c] bound %v, want vm via predicate fold", c.Bound)
	}
	d := batchDoc(t, 3, 150)
	auto, err := c.EvalRoot(d)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := c.EvalOptions(RootContext(d), EvalOptions{Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(auto, explicit) {
		t.Fatalf("folded plan: %s, naive on original: %s", auto, explicit)
	}
}

// A PlanCache stays within its capacity under arbitrary insertions and
// evicts least-recently-used first.
func TestPlanCacheBoundedLRU(t *testing.T) {
	pc := NewPlanCache(8)
	for i := 0; i < 50; i++ {
		if _, err := pc.Prepare(fmt.Sprintf("//a[%d]", i)); err != nil {
			t.Fatal(err)
		}
		if pc.Len() > 8 {
			t.Fatalf("cache grew to %d entries (capacity 8)", pc.Len())
		}
	}
	if pc.Len() != 8 {
		t.Fatalf("cache holds %d entries after 50 inserts, want 8", pc.Len())
	}
	// 50 inserts into capacity 8 leave 42 evictions, all counted.
	s0 := pc.Stats()
	if s0.Size != 8 || s0.Evictions != 42 {
		t.Fatalf("stats after fill = %+v, want size 8, evictions 42", s0)
	}
	// The most recent 8 are resident: preparing them again is all hits.
	for i := 42; i < 50; i++ {
		if _, err := pc.Prepare(fmt.Sprintf("//a[%d]", i)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := pc.Stats()
	if s1.Hits-s0.Hits != 8 || s1.Misses != s0.Misses {
		t.Fatalf("resident set: %d hits %d misses, want 8 hits 0 misses", s1.Hits-s0.Hits, s1.Misses-s0.Misses)
	}
	if s1.Evictions != s0.Evictions {
		t.Fatalf("hits must not evict: %d new evictions", s1.Evictions-s0.Evictions)
	}
	// Touch the LRU entry, insert one more, and the touched entry survives.
	pc.Prepare("//a[42]")
	pc.Prepare("//b")
	s2 := pc.Stats()
	pc.Prepare("//a[42]")
	s3 := pc.Stats()
	if s3.Hits-s2.Hits != 1 {
		t.Fatal("recently touched entry was evicted")
	}
	if s2.Evictions != s1.Evictions+1 {
		t.Fatalf("inserting past capacity must evict exactly once, got %d", s2.Evictions-s1.Evictions)
	}
	// //a[43] became LRU and must be gone.
	pc.Prepare("//a[43]")
	if s4 := pc.Stats(); s4.Misses != s3.Misses+1 {
		t.Fatal("LRU entry was not evicted")
	}
}

// Hammer one PlanCache from many goroutines over a working set larger
// than its capacity; with -race this checks lock coverage, and the
// cache must never exceed capacity nor serve a wrong plan.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewPlanCache(16)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				tag := string(rune('a' + rng.Intn(26)))
				qs := "//" + tag
				c, err := pc.Prepare(qs)
				if err != nil {
					t.Errorf("Prepare(%q): %v", qs, err)
					return
				}
				if c.Source != qs || !strings.Contains(c.Source, tag) {
					t.Errorf("Prepare(%q) returned plan for %q", qs, c.Source)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if pc.Len() > 16 {
		t.Fatalf("cache holds %d entries (capacity 16)", pc.Len())
	}
	st := pc.Stats()
	if st.Hits+st.Misses < goroutines*300 {
		t.Fatalf("stats lost lookups: %d hits + %d misses < %d", st.Hits, st.Misses, goroutines*300)
	}
	if st.Size != pc.Len() {
		t.Fatalf("Stats().Size = %d, Len() = %d", st.Size, pc.Len())
	}
}

// TestEvalBatchSharedContextCanceled pins the batch-cancellation error
// contract: a canceled shared opts.Context aborts every query with
// ErrCanceled — never misreported as per-query budget exhaustion, even
// with a tight MaxOps riding along — and the shared flight recorder
// records the canceled tail as failures (Card -1, ErrKind "canceled"),
// not as partial results.
func TestEvalBatchSharedContextCanceled(t *testing.T) {
	d := batchDoc(t, 2, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the batch starts: every query is a canceled tail
	fr := NewFlightRecorder(FlightRecorderConfig{RecentCapacity: 64, SlowThreshold: -1})
	results := EvalBatch(d, batchQueries, EvalOptions{
		Context: ctx, MaxOps: 1, Workers: 2, Flight: fr,
	})
	for _, r := range results {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", r.Query, r.Err)
		}
		if errors.Is(r.Err, ErrBudgetExceeded) {
			t.Errorf("%s: canceled context misreported as budget exhaustion: %v", r.Query, r.Err)
		}
		if r.Value != nil {
			t.Errorf("%s: canceled query carries a value: %v", r.Query, r.Value)
		}
	}
	recs := append(fr.Recent(), fr.Slow()...)
	if len(recs) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	for _, rec := range recs {
		if rec.ErrKind != "canceled" {
			t.Errorf("flight record %q: ErrKind = %q, want canceled", rec.Query, rec.ErrKind)
		}
		if rec.Card != -1 {
			t.Errorf("flight record %q: Card = %d, want -1 (no partial results for canceled evaluations)", rec.Query, rec.Card)
		}
	}
}

// TestEvalBatchPerQueryTimeoutIsolated pins the other half of the
// contract: opts.Timeout is per query, so one slow query timing out
// must not poison the rest of the batch.
func TestEvalBatchPerQueryTimeoutIsolated(t *testing.T) {
	d := batchDoc(t, 3, 400)
	queries := []string{"//a", "//b/c", "count(//a)"}
	results := EvalBatch(d, queries, EvalOptions{
		Timeout: time.Minute, Workers: 2,
	})
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: err = %v, want success under a generous per-query deadline", r.Query, r.Err)
		}
	}
}

// VisitBatch visits exactly EvalBatch's results, in input order, for
// every worker count, with and without a result cache. With a cache its
// hits are borrowed — a later visit of the same query sees the cache's
// stored node-set itself — while EvalBatch keeps handing out copies.
func TestVisitBatchMatchesEvalBatch(t *testing.T) {
	d := batchDoc(t, 3, 300)
	queries := append(append([]string{}, batchQueries...), "//a[", "//a")
	for _, workers := range []int{1, 3} {
		for _, cached := range []bool{false, true} {
			opts := EvalOptions{Workers: workers}
			if cached {
				opts.Cache = NewResultCache(0, 0)
			}
			want := EvalBatch(d, queries, opts)
			next := 0
			VisitBatch(d, queries, opts, func(i int, r BatchResult) {
				if i != next {
					t.Fatalf("workers=%d cached=%v: visited %d, want %d", workers, cached, i, next)
				}
				next++
				w := want[i]
				if r.Query != w.Query || (r.Err == nil) != (w.Err == nil) || (r.Err == nil && !value.Equal(r.Value, w.Value)) {
					t.Errorf("workers=%d cached=%v query %q: visited (%v, %v), EvalBatch (%v, %v)",
						workers, cached, queries[i], r.Value, r.Err, w.Value, w.Err)
				}
			})
			if next != len(queries) {
				t.Fatalf("workers=%d cached=%v: visited %d of %d", workers, cached, next, len(queries))
			}
		}
	}

	rc := NewResultCache(0, 0)
	opts := EvalOptions{Workers: 1, Cache: rc}
	first := func(v Value) *Node { return v.(NodeSet)[0] }
	var borrowed [2]Value
	for round := range borrowed {
		VisitBatch(d, []string{"//a"}, opts, func(_ int, r BatchResult) { borrowed[round] = r.Value })
	}
	if &borrowed[0].(NodeSet)[0] != &borrowed[1].(NodeSet)[0] {
		t.Error("a borrowed hit should hand over the stored node-set, not a copy")
	}
	owned := EvalBatch(d, []string{"//a"}, opts)[0].Value
	if &owned.(NodeSet)[0] == &borrowed[0].(NodeSet)[0] || first(owned) != first(borrowed[0]) {
		t.Error("EvalBatch must return a private copy of the same hit")
	}
}
