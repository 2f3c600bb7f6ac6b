// The cache-hit allocation gate (`make cachegate`, part of `make
// check`): serving a result from the shared result cache must stay
// allocation-free apart from the copy-on-hit of the value itself, so a
// change that sneaks key construction, map boxing or logging onto the
// hit path fails CI instead of quietly eroding the cache's entire point.
// Measured as of EXP-CACHE: 2 allocs per hit (the NodeSet header and its
// backing array); the ceiling leaves headroom, not license.
//
// The evalbatch/daemon row serves the same hit the way xpathd's
// /v1/eval handler does: a one-query EvalBatch under the daemon's
// options (one batch worker, deadline and budgets, shared cache, metrics
// registry and flight recorder). A single-worker batch evaluates inline
// on the caller's goroutine and writes the caller's registry directly,
// so it may cost only a few allocations more than the bare hit:
// measured at 3 allocs per hit (the result slice and the hit's copy).
//
// The visitbatch/daemon row is the same request through VisitBatch,
// which is what the handler calls: results are visited in place, and a
// borrowed hit hands over the stored value, so nothing is allocated.
//
// Like the alloc gate, the race detector's instrumentation allocates, so
// the gate only arms on plain `go test`.

//go:build !race

package xpathcomplexity

import (
	"context"
	"testing"
	"time"

	"xpathcomplexity/internal/eval/evalctx"
)

// cacheGateCeiling is the maximum tolerated allocations per warm cache
// hit, across the same workloads the alloc gate holds cold ceilings for.
const cacheGateCeiling = 8

// batchGateCeiling is the maximum tolerated allocations per warm
// one-query EvalBatch hit under the daemon's options.
const batchGateCeiling = 12

// visitGateCeiling is the maximum tolerated allocations per warm
// one-query VisitBatch hit under the daemon's options.
const visitGateCeiling = 0

func TestCacheGate(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates; gate runs uninstrumented")
	}
	d := prepBenchDoc()
	ctx := evalctx.Root(d)
	workloads := []struct {
		name   string
		query  string
		engine Engine
	}{
		{"cvt/descendant-chain", "//a//b//c", EngineCVT},
		{"cvt/pred", "//a[b]/c", EngineCVT},
		{"corelinear/path", "/descendant::a/child::b/descendant::c", EngineCoreLinear},
		{"corelinear/pred", "//a[b and not(c)]", EngineCoreLinear},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := MustPrepare(w.query)
			rc := NewResultCache(0, 0)
			opts := EvalOptions{Engine: w.engine, Cache: rc}
			eval := func() {
				if _, err := c.EvalOptions(ctx, opts); err != nil {
					t.Fatal(err)
				}
			}
			// First call admits; everything after is the hit path under
			// measurement.
			for i := 0; i < 5; i++ {
				eval()
			}
			if st := rc.Stats(); st.Hits == 0 {
				t.Fatalf("gate priming produced no hits: %+v", st)
			}
			got := testing.AllocsPerRun(100, eval)
			if got > cacheGateCeiling {
				t.Errorf("%s: %.1f allocs per cache hit, ceiling %d — the hit path regressed; "+
					"compare EXPERIMENTS.md EXP-CACHE and BENCH_CACHE.json",
					w.name, got, cacheGateCeiling)
			}
		})
	}
	for _, visit := range []bool{false, true} {
		name, ceiling := "evalbatch/daemon", batchGateCeiling
		if visit {
			name, ceiling = "visitbatch/daemon", visitGateCeiling
		}
		t.Run(name, func(t *testing.T) {
			rc := NewResultCache(0, 0)
			reqCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := EvalOptions{
				Workers:    1,
				Context:    reqCtx,
				Timeout:    2 * time.Second,
				MaxOps:     50_000_000,
				MaxNodeSet: 1_000_000,
				Cache:      rc,
				Metrics:    NewMetrics(),
				Flight:     NewFlightRecorder(FlightRecorderConfig{}),
			}
			queries := []string{"//a[b]/c"}
			check := func(_ int, r BatchResult) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			eval := func() { check(0, EvalBatch(d, queries, opts)[0]) }
			if visit {
				eval = func() { VisitBatch(d, queries, opts, check) }
			}
			for i := 0; i < 5; i++ {
				eval()
			}
			if st := rc.Stats(); st.Hits == 0 {
				t.Fatalf("gate priming produced no hits: %+v", st)
			}
			got := testing.AllocsPerRun(100, eval)
			if got > float64(ceiling) {
				t.Errorf("%s: %.1f allocs per one-query batch hit, ceiling %d — "+
					"the single-worker batch path regressed", name, got, ceiling)
			}
			t.Logf("%.1f allocs per one-query batch hit", got)
		})
	}
}
