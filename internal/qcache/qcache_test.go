package qcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
)

func testDoc(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func keyFor(d *xmltree.Document, plan string) Key {
	return Key{DocFP: d.Fingerprint(), Plan: plan, Engine: "test", CtxOrd: 0, CtxPos: 1, CtxSize: 1}
}

func TestHitServesCopy(t *testing.T) {
	d := testDoc(t, `<r><a/><a/></r>`)
	c := New(8, 1<<16)
	evals := 0
	eval := func() (value.Value, error) {
		evals++
		return value.NewNodeSet(d.Nodes[1], d.Nodes[2]), nil
	}
	key := keyFor(d, "//a")

	v1, err := c.Do(key, d, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Do(key, d, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 1 {
		t.Fatalf("evaluated %d times, want 1", evals)
	}
	ns1, ns2 := v1.(value.NodeSet), v2.(value.NodeSet)
	if !ns1.Equal(ns2) {
		t.Fatalf("hit %v != miss %v", ns2, ns1)
	}
	// The hit owns its backing slice: clobbering it must not corrupt
	// the cache's copy.
	ns2[0] = d.Nodes[0]
	v3, err := c.Do(key, d, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.(value.NodeSet).Equal(ns1) {
		t.Fatalf("caller mutation leaked into the cache: %v", v3)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / size 1", st)
	}
}

func TestScalarValues(t *testing.T) {
	d := testDoc(t, `<r/>`)
	c := New(8, 1<<16)
	for i, v := range []value.Value{value.Number(3.5), value.Boolean(true), value.String("x")} {
		key := keyFor(d, fmt.Sprintf("scalar-%d", i))
		got, err := c.Do(key, d, nil, func() (value.Value, error) { return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		hit, err := c.Do(key, d, nil, func() (value.Value, error) {
			t.Fatal("re-evaluated a cached scalar")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != v || hit != v {
			t.Fatalf("scalar round-trip: got %v / %v, want %v", got, hit, v)
		}
	}
}

// Content-identical documents share entries (that is the point of
// fingerprint keying); the served nodes must be remapped into the
// asking document.
func TestCrossDocumentRemap(t *testing.T) {
	const src = `<r><a/><b/></r>`
	d1 := testDoc(t, src)
	d2 := testDoc(t, src)
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatal("fixture: fingerprints differ")
	}
	c := New(8, 1<<16)
	key := keyFor(d1, "//a")
	if _, err := c.Do(key, d1, nil, func() (value.Value, error) {
		return value.NewNodeSet(d1.Nodes[1]), nil
	}); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do(keyFor(d2, "//a"), d2, nil, func() (value.Value, error) {
		t.Fatal("content-identical document missed")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := v.(value.NodeSet)
	if len(ns) != 1 || ns[0].Document() != d2 || ns[0].Ord != 1 {
		t.Fatalf("served nodes not remapped into the asking document: %v", ns)
	}
}

func TestSingleflightExactlyOneEvaluation(t *testing.T) {
	d := testDoc(t, `<r><a/></r>`)
	c := New(8, 1<<16)
	key := keyFor(d, "//a")
	var evals atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]value.Value, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(key, d, nil, func() (value.Value, error) {
				evals.Add(1)
				<-gate // hold the leader until waiters have piled up
				return value.NewNodeSet(d.Nodes[1]), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	// Release the leader only once at least one caller has demonstrably
	// joined the in-flight call, so the singleflight path is exercised
	// deterministically.
	for c.Stats().InflightWaits == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := evals.Load(); n != 1 {
		t.Fatalf("%d concurrent identical lookups ran %d evaluations, want exactly 1", callers, n)
	}
	want := results[0].(value.NodeSet)
	for i, v := range results {
		if !v.(value.NodeSet).Equal(want) {
			t.Fatalf("caller %d got %v, others %v", i, v, want)
		}
	}
	st := c.Stats()
	if st.InflightWaits == 0 {
		t.Fatalf("no inflight waits recorded across %d concurrent callers: %+v", callers, st)
	}
	if st.Hits+st.InflightWaits != callers-1 {
		t.Fatalf("hits(%d)+waits(%d) != %d non-leader callers", st.Hits, st.InflightWaits, callers-1)
	}
}

// A leader's error must reach only the leader: waiters retry and get
// their own verdicts, and nothing is admitted.
func TestLeaderErrorNotShared(t *testing.T) {
	d := testDoc(t, `<r><a/></r>`)
	c := New(8, 1<<16)
	key := keyFor(d, "//a")
	boom := errors.New("boom")
	var evals atomic.Int64
	_, err := c.Do(key, d, nil, func() (value.Value, error) {
		evals.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error was admitted")
	}
	// The next caller re-evaluates (errors are not cached) and can succeed.
	v, err := c.Do(key, d, nil, func() (value.Value, error) {
		evals.Add(1)
		return value.Boolean(true), nil
	})
	if err != nil || v != value.Boolean(true) {
		t.Fatalf("retry after error: %v, %v", v, err)
	}
	if evals.Load() != 2 {
		t.Fatalf("evals = %d, want 2", evals.Load())
	}
}

func TestClassify(t *testing.T) {
	cancelErr := &evalctx.CancelError{Cause: context.Canceled}
	budgetErr := &evalctx.BudgetError{Limit: "ops", Max: 1, Used: 2}
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OutcomeCacheable},
		{cancelErr, OutcomeCanceled},
		{fmt.Errorf("wrapped: %w", cancelErr), OutcomeCanceled},
		{budgetErr, OutcomeBudget},
		{evalctx.ErrBudget, OutcomeBudget},
		{errors.New("semantic"), OutcomeFailed},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// Non-cacheable outcomes bypass admission and are visible per class in
// the metrics registry.
func TestBypassMetrics(t *testing.T) {
	d := testDoc(t, `<r/>`)
	c := New(8, 1<<16)
	m := obs.NewMetrics()
	c.Do(keyFor(d, "q1"), d, m, func() (value.Value, error) {
		return nil, &evalctx.CancelError{Cause: context.Canceled}
	})
	c.Do(keyFor(d, "q2"), d, m, func() (value.Value, error) {
		return nil, &evalctx.BudgetError{Limit: "ops", Max: 1, Used: 2}
	})
	c.Do(keyFor(d, "q3"), d, m, func() (value.Value, error) {
		return nil, errors.New("semantic")
	})
	s := m.Snapshot()
	for name, want := range map[string]int64{
		MetricBypassCanceled: 1,
		MetricBypassBudget:   1,
		MetricBypassError:    1,
		MetricMiss:           3,
		MetricHit:            0,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if c.Len() != 0 {
		t.Fatal("a non-cacheable outcome was admitted")
	}
}

func TestEntryBoundLRU(t *testing.T) {
	d := testDoc(t, `<r/>`)
	c := New(2, 1<<16)
	m := obs.NewMetrics()
	mustDo := func(plan string) {
		t.Helper()
		if _, err := c.Do(keyFor(d, plan), d, m, func() (value.Value, error) {
			return value.String(plan), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustDo("q1")
	mustDo("q2")
	mustDo("q1") // refresh q1 so q2 is the LRU victim
	mustDo("q3") // evicts q2
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if !c.Contains(keyFor(d, "q1")) || !c.Contains(keyFor(d, "q3")) || c.Contains(keyFor(d, "q2")) {
		t.Fatal("LRU evicted the wrong entry")
	}
	if got := m.Snapshot().Counter(MetricEvict); got != 1 {
		t.Fatalf("cache.evict = %d, want 1", got)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats evictions = %d, want 1", st.Evictions)
	}
}

func TestByteBound(t *testing.T) {
	d := testDoc(t, `<r/>`)
	// Budget fits roughly two small string entries.
	c := New(100, 420)
	admit := func(plan string) {
		t.Helper()
		if _, err := c.Do(keyFor(d, plan), d, nil, func() (value.Value, error) {
			return value.String("0123456789"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	admit("q1")
	admit("q2")
	admit("q3")
	if got := c.Bytes(); got > 420 {
		t.Fatalf("bytes = %d, exceeds the budget", got)
	}
	if c.Len() >= 3 {
		t.Fatalf("len = %d, byte budget did not evict", c.Len())
	}

	// A value larger than the whole budget is never admitted.
	m := obs.NewMetrics()
	big := make(value.NodeSet, 4096)
	for i := range big {
		big[i] = d.Nodes[0]
	}
	if _, err := c.Do(keyFor(d, "huge"), d, m, func() (value.Value, error) {
		return big, nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Contains(keyFor(d, "huge")) {
		t.Fatal("oversized value admitted")
	}
	if got := m.Snapshot().Counter(MetricBypassOversize); got != 1 {
		t.Fatalf("cache.bypass.oversize = %d, want 1", got)
	}
}

func TestInvalidateDocument(t *testing.T) {
	d1 := testDoc(t, `<r><a/></r>`)
	d2 := testDoc(t, `<r><b/></r>`)
	c := New(8, 1<<16)
	for _, d := range []*xmltree.Document{d1, d2} {
		for _, plan := range []string{"p1", "p2"} {
			if _, err := c.Do(keyFor(d, plan), d, nil, func() (value.Value, error) {
				return value.Boolean(true), nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if n := c.InvalidateDocument(d1.Fingerprint()); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if c.Contains(keyFor(d1, "p1")) || !c.Contains(keyFor(d2, "p1")) {
		t.Fatal("invalidation hit the wrong document")
	}
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Clear left state behind")
	}
	if st := c.Stats(); st.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4", st.Invalidations)
	}
}

// InvalidateDocument walks one fingerprint's entry chain: among many
// documents' interleaved entries — some already evicted out of the
// middle of their chains — it must drop exactly that document's
// resident entries, count them, and leave every other document
// serving hits.
func TestInvalidateDocumentAmongMany(t *testing.T) {
	const docs, plans, capacity = 12, 6, 50
	c := New(capacity, 1<<20)
	key := func(doc, plan int) Key {
		return Key{DocFP: uint64(1000 + doc), Plan: fmt.Sprintf("p%d", plan), Engine: "test", CtxPos: 1, CtxSize: 1}
	}
	evals := 0
	eval := func() (value.Value, error) { evals++; return value.Number(1), nil }
	// Plan-major admission interleaves the documents in LRU order; the
	// 72 admissions overflow the 50-entry bound, evicting the oldest.
	for p := 0; p < plans; p++ {
		for d := 0; d < docs; d++ {
			if _, err := c.Do(key(d, p), nil, nil, eval); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func(d int) int {
		n := 0
		for p := 0; p < plans; p++ {
			if c.Contains(key(d, p)) {
				n++
			}
		}
		return n
	}
	before := c.Stats()
	for _, victim := range []int{0, 7, 11} {
		want := resident(victim)
		if want == 0 {
			t.Fatalf("doc %d has no resident entries; the test needs some", victim)
		}
		len0 := c.Len()
		if n := c.InvalidateDocument(key(victim, 0).DocFP); n != want {
			t.Fatalf("doc %d: invalidated %d entries, want %d", victim, n, want)
		}
		if resident(victim) != 0 || c.Len() != len0-want {
			t.Fatalf("doc %d: %d entries left, len %d -> %d", victim, resident(victim), len0, c.Len())
		}
		if n := c.InvalidateDocument(key(victim, 0).DocFP); n != 0 {
			t.Fatalf("doc %d: second invalidation dropped %d entries", victim, n)
		}
	}
	st := c.Stats()
	if got := st.Invalidations - before.Invalidations; got != int64(before.Size-st.Size) {
		t.Fatalf("invalidations grew by %d, entries fell by %d", got, before.Size-st.Size)
	}
	// Another document's newest entry still serves as a hit.
	evals0, hits0 := evals, st.Hits
	if _, err := c.Do(key(3, plans-1), nil, nil, eval); err != nil {
		t.Fatal(err)
	}
	if evals != evals0 || c.Stats().Hits != hits0+1 {
		t.Fatalf("surviving document missed: evals %d -> %d", evals0, evals)
	}
	// Draining every document empties the cache and its chain heads.
	for d := 0; d < docs; d++ {
		c.InvalidateDocument(key(d, 0).DocFP)
	}
	if c.Len() != 0 || c.Bytes() != 0 || len(c.docs) != 0 {
		t.Fatalf("drained cache: len %d, bytes %d, chains %d", c.Len(), c.Bytes(), len(c.docs))
	}
}

// A panicking leader must clear the inflight slot (waiters retry) and
// let the panic propagate to the caller's recovery.
func TestLeaderPanicUnwedgesKey(t *testing.T) {
	d := testDoc(t, `<r/>`)
	c := New(8, 1<<16)
	key := keyFor(d, "q")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do(key, d, nil, func() (value.Value, error) { panic("kaboom") })
	}()
	v, err := c.Do(key, d, nil, func() (value.Value, error) {
		return value.Boolean(true), nil
	})
	if err != nil || v != value.Boolean(true) {
		t.Fatalf("key wedged after leader panic: %v, %v", v, err)
	}
}

func TestRegisterGauges(t *testing.T) {
	d := testDoc(t, `<r/>`)
	c := New(8, 1<<16)
	if _, err := c.Do(keyFor(d, "q"), d, nil, func() (value.Value, error) {
		return value.Boolean(true), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(keyFor(d, "q"), d, nil, nil); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	c.RegisterGauges(m)
	c.RegisterGauges(m) // idempotent
	s := m.Snapshot()
	if s.Gauge("cache.size") != 1 || s.Gauge("cache.hits_total") != 1 || s.Gauge("cache.misses_total") != 1 {
		t.Fatalf("registered gauges wrong: %v", s.Gauges)
	}
	if s.Gauge(MetricBytes) <= 0 {
		t.Fatal("cache.bytes gauge not registered")
	}
	// The gauges read the cache at snapshot time, so they shrink with it.
	c.InvalidateDocument(d.Fingerprint())
	if s := m.Snapshot(); s.Gauge("cache.size") != 0 || s.Gauge(MetricBytes) != 0 {
		t.Fatalf("after invalidation: size %d bytes %d, want 0 0", s.Gauge("cache.size"), s.Gauge(MetricBytes))
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	d := testDoc(t, `<r><a/><b/><c/></r>`)
	c := New(16, 1<<14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				plan := fmt.Sprintf("p%d", i%24)
				v, err := c.Do(keyFor(d, plan), d, nil, func() (value.Value, error) {
					return value.NewNodeSet(d.Nodes[1+i%3]), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(v.(value.NodeSet)) != 1 {
					t.Errorf("bad value %v", v)
					return
				}
				if i%50 == 0 {
					c.InvalidateDocument(d.Fingerprint())
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLeaderErrorConcurrentInvalidation pins the seam between a failing
// singleflight leader and concurrent fingerprint invalidation: while N
// callers hammer one key whose evaluation always fails, another
// goroutine loops InvalidateDocument on the same fingerprint. Every
// caller must observe the error — never a stale entry, never a nil
// value with a nil error — and the bypass.error metric must charge
// exactly one increment per leader evaluation that ran, no matter how
// the invalidations interleave with leader settles and waiter retries.
// Run under -race this also proves the inflight map, the entry map and
// the metric counters stay coherent across the three parties.
func TestLeaderErrorConcurrentInvalidation(t *testing.T) {
	d := testDoc(t, `<r><a/></r>`)
	c := New(8, 1<<16)
	m := obs.NewMetrics()
	key := keyFor(d, "//always-fails")
	boom := errors.New("deterministic evaluation failure")
	var evals atomic.Int64
	eval := func() (value.Value, error) {
		evals.Add(1)
		runtime.Gosched() // widen the leader window so waiters really wait
		return nil, boom
	}

	stop := make(chan struct{})
	var invalidations sync.WaitGroup
	invalidations.Add(1)
	go func() {
		defer invalidations.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.InvalidateDocument(d.Fingerprint())
				runtime.Gosched()
			}
		}
	}()

	const callers, rounds = 8, 50
	var wg sync.WaitGroup
	errCh := make(chan error, callers*rounds)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, err := c.Do(key, d, m, eval)
				if err == nil {
					errCh <- fmt.Errorf("Do returned nil error for an always-failing key (value %v)", v)
					return
				}
				if !errors.Is(err, boom) {
					errCh <- fmt.Errorf("Do returned %v, want the leader's error", err)
					return
				}
				if v != nil {
					errCh <- fmt.Errorf("Do returned value %v alongside error %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	invalidations.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Errors are never cached, and each leader run charges the error
	// bypass exactly once — waiter retries that become leaders charge
	// their own run, nothing double-counts.
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after error-only traffic, want 0", c.Len())
	}
	snap := m.Snapshot()
	if got, want := snap.Counter(MetricBypassError), evals.Load(); got != want {
		t.Errorf("cache.bypass.error = %d, want %d (one per leader evaluation)", got, want)
	}
	if snap.Counter(MetricHit) != 0 {
		t.Errorf("cache.hit = %d, want 0 — a failing leader must never seed a hit", snap.Counter(MetricHit))
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("stats.hits = %d, want 0", st.Hits)
	}
}

// TestBorrowedHitServesStored pins DoBorrowed's contract: a hit, and a
// borrowing leader's own result, are the stored value itself — no copy
// — while Do still hands out a private copy; a hit against a
// content-identical document is remapped, so it is a copy either way.
func TestBorrowedHitServesStored(t *testing.T) {
	d := testDoc(t, `<r><a/><a/></r>`)
	c := New(8, 1<<16)
	key := keyFor(d, "//a")
	eval := func() (value.Value, error) { return value.NewNodeSet(d.Nodes[1], d.Nodes[2]), nil }
	same := func(a, b value.Value) bool { return &a.(value.NodeSet)[0] == &b.(value.NodeSet)[0] }

	led, _ := c.DoBorrowed(key, d, nil, eval)
	hit, _ := c.DoBorrowed(key, d, nil, eval)
	if !same(led, hit) {
		t.Error("a borrowing leader's result should be admitted as is and served to the next borrowed hit")
	}
	if owned, _ := c.Do(key, d, nil, eval); same(owned, hit) {
		t.Error("Do must copy a hit")
	}
	twin := testDoc(t, `<r><a/><a/></r>`)
	remapped, _ := c.DoBorrowed(key, twin, nil, eval)
	if ns := remapped.(value.NodeSet); ns[0].Document() != twin || same(remapped, hit) {
		t.Error("a borrowed hit for a content-identical document must be remapped into it")
	}
	if n, err := c.DoBorrowed(keyFor(d, "count(//a)"), d, nil, func() (value.Value, error) { return value.Number(2), nil }); err != nil || n != value.Number(2) {
		t.Errorf("scalar through DoBorrowed: %v, %v", n, err)
	}
}

// TestConcurrentHitsAndInvalidation races owned hits, borrowed hits and
// InvalidateDocument on one key (run it under -race). Owned results are
// mutated by their callers; the stored value must never change, so
// every later hit still reads the evaluated answer. Hits copy outside
// the cache lock, which is sound only because stored values are never
// modified after admission.
func TestConcurrentHitsAndInvalidation(t *testing.T) {
	d := testDoc(t, `<r><a/><a/><a/><a/></r>`)
	c := New(8, 1<<16)
	key := keyFor(d, "//a")
	want := value.NewNodeSet(d.Nodes[1], d.Nodes[2], d.Nodes[3], d.Nodes[4])
	eval := func() (value.Value, error) { return value.NewNodeSet(want...), nil }
	check := func(v value.Value) {
		if !v.(value.NodeSet).Equal(want) {
			t.Errorf("served %v, want %v", v, want)
		}
	}
	// The invalidators wait until a reader's first Do has returned, so
	// the entry has been admitted and the first InvalidateDocument meets
	// it resident, however the scheduler orders the goroutines.
	admitted := make(chan struct{})
	var admit sync.Once
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() { // owned hits, mutated after reading
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, err := c.Do(key, d, nil, eval)
				admit.Do(func() { close(admitted) })
				if err != nil {
					t.Error(err)
					return
				}
				check(v)
				ns := v.(value.NodeSet)
				for j := range ns {
					ns[j] = d.Nodes[0]
				}
			}
		}()
		go func() { // borrowed hits, only read
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, err := c.DoBorrowed(key, d, nil, eval)
				admit.Do(func() { close(admitted) })
				if err != nil {
					t.Error(err)
					return
				}
				check(v)
			}
		}()
		go func() {
			defer wg.Done()
			<-admitted
			for i := 0; i < 100; i++ {
				c.InvalidateDocument(d.Fingerprint())
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	v, err := c.DoBorrowed(key, d, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	check(v)
	if st := c.Stats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Errorf("the race exercised no hits or no invalidations: %+v", st)
	}
}
