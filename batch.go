package xpathcomplexity

import (
	"runtime"
	"sync"
)

// BatchResult is the outcome of one query of an EvalBatch call.
type BatchResult struct {
	// Query is the query text, as passed to EvalBatch.
	Query string
	// Value is the evaluation result; nil when Err is set.
	Value Value
	// Err is the compile or evaluation error for this query, if any.
	Err error
}

// EvalBatch evaluates independent queries against one document from its
// root context, sharing a single document index and the default plan
// cache across all of them. Queries are distributed over
// min(opts.Workers, len(queries)) workers (GOMAXPROCS when opts.Workers
// is 0); a single worker runs inline on the calling goroutine, so a
// one-query batch costs what Compiled.EvalOptions costs. Results are in
// input order, with per-query errors carried in the corresponding
// BatchResult rather than aborting the batch. Documents are immutable and the engines are
// stateless, so the only shared mutable state is the index build and the
// plan cache, both of which are concurrency-safe.
//
// When opts.Metrics is set, every worker writes straight into it (its
// handles are atomic), and the shared plan cache and index statistics
// are recorded after the batch. A shared opts.Counter is also safe.
//
// Resource limits apply per query, not per batch: opts.Timeout starts a
// fresh deadline for each query as its evaluation begins, and MaxOps /
// MaxDepth / MaxNodeSet are enforced by a private guard per evaluation.
// A caller-provided opts.Context, by contrast, is shared — canceling it
// aborts every query still running, each reporting ErrCanceled in its
// BatchResult.
//
// A caller-provided opts.Cache is shared across the workers, like the
// plan cache: duplicate queries in the batch collapse to one engine run
// (singleflight) with the rest served as hits, and the cache stays warm
// across batches against the same document. Its cumulative statistics
// are recorded into opts.Metrics after the batch.
//
// The engines recycle their scratch memory (bitset arenas, node buffers,
// memo tables) through sync.Pools, so a worker loop like this one reuses
// warm buffers from query to query instead of reallocating them. Each
// evaluation checks out private scratch and returns it only after copying
// out anything the caller sees, so results are stable and workers never
// share a buffer (TestEvalBatchScratchReuse pins this under -race).
func EvalBatch(d *Document, queries []string, opts EvalOptions) []BatchResult {
	results := make([]BatchResult, len(queries))
	evalBatch(d, queries, opts, results, nil)
	return results
}

// VisitBatch evaluates a batch exactly as EvalBatch does, but hands each
// result to visit, in input order, instead of returning them. The
// BatchResult is borrowed: its Value may be the result cache's own
// stored value rather than a private copy, so visit must not modify it
// and must copy out whatever it keeps past its return. A one-worker
// batch visits each query as soon as it is evaluated and allocates no
// result slice; with more workers the results are collected first.
func VisitBatch(d *Document, queries []string, opts EvalOptions, visit func(i int, r BatchResult)) {
	opts.borrow = true
	evalBatch(d, queries, opts, nil, visit)
}

// evalBatch is the path EvalBatch and VisitBatch share: it stores each
// result into results (when non-nil) and then passes it to visit (when
// non-nil).
func evalBatch(d *Document, queries []string, opts EvalOptions, results []BatchResult, visit func(int, BatchResult)) {
	if len(queries) == 0 {
		return
	}
	if !opts.DisableIndex {
		// Build the shared index up front so the workers never race to
		// duplicate the O(|D|) build work (the build itself is safe
		// either way).
		d.Index()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	ctx := RootContext(d)
	if workers == 1 {
		for i, q := range queries {
			var r BatchResult
			evalBatchQuery(&r, q, ctx, opts)
			if results != nil {
				results[i] = r
			}
			if visit != nil {
				visit(i, r)
			}
		}
	} else {
		if results == nil {
			results = make([]BatchResult, len(queries))
		}
		evalBatchParallel(results, queries, ctx, opts, workers)
		if visit != nil {
			for i, r := range results {
				visit(i, r)
			}
		}
	}
	if opts.Metrics != nil {
		defaultPlanCache.RecordMetrics(opts.Metrics)
		recordIndexMetrics(opts.Metrics, d)
		if opts.Cache != nil {
			// Attaches the cache's scrape-time gauges once per registry;
			// a daemon that registered them up front pays one atomic load.
			opts.Cache.RegisterGauges(opts.Metrics)
		}
	}
}

// evalBatchParallel runs the worker goroutines; being a function of its
// own, only multi-worker batches move opts to the heap for them.
func evalBatchParallel(results []BatchResult, queries []string, ctx Context, opts EvalOptions, workers int) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				evalBatchQuery(&results[i], queries[i], ctx, opts)
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
}

// evalBatchQuery prepares and evaluates one batch query into r.
func evalBatchQuery(r *BatchResult, query string, ctx Context, opts EvalOptions) {
	r.Query = query
	c, err := Prepare(query)
	if err != nil {
		r.Err = err
		return
	}
	r.Value, r.Err = c.EvalOptions(ctx, opts)
}
