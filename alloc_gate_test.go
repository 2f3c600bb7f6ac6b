// The allocation regression gate (`make allocgate`, part of `make
// check`): warm compiled-query evaluations must stay under checked-in
// allocs-per-op ceilings, so a change that silently reintroduces a
// per-node or per-predicate allocation on a hot path fails CI instead of
// surfacing months later as a throughput regression. Ceilings are upper
// bounds with a little headroom, not exact counts — tighten them when
// the measured numbers (EXPERIMENTS.md EXP-ALLOC, BENCH_ALLOC.json)
// improve, and never loosen one without understanding what regressed.
//
// The race detector's instrumentation allocates, and coverage
// instrumentation can too, so the gate only arms on plain `go test`.

//go:build !race

package xpathcomplexity

import (
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
)

// allocCeilings are the gate's workloads: the BenchmarkRepeatedQuery
// warm workloads over the shared 4000-node random document, with the
// maximum tolerated allocations per warm evaluation. Measured values as
// of EXP-ALLOC: cvt/descendant-chain 3, cvt/pred 197, corelinear/path 2,
// corelinear/pred 4 (seed: 24, 3598, 32, 26); streaming/path 11.
var allocCeilings = []struct {
	name    string
	query   string
	engine  Engine
	ceiling float64
}{
	{"cvt/descendant-chain", "//a//b//c", EngineCVT, 6},
	{"cvt/pred", "//a[b]/c", EngineCVT, 240},
	{"corelinear/path", "/descendant::a/child::b/descendant::c", EngineCoreLinear, 4},
	{"corelinear/pred", "//a[b and not(c)]", EngineCoreLinear, 8},
	// Pinned to the streaming NFA (the plan binding prefers the VM). The
	// ceiling sits below the 20 allocs a per-evaluation NFA compile
	// costs, so it pins the memoized program.
	{"streaming/path", "/descendant::a/child::b", EngineStreaming, 14},
}

func TestAllocGate(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates; gate runs uninstrumented")
	}
	d := prepBenchDoc()
	ctx := evalctx.Root(d)
	for _, w := range allocCeilings {
		t.Run(w.name, func(t *testing.T) {
			c := MustPrepare(w.query)
			opts := EvalOptions{Engine: w.engine}
			eval := func() {
				if _, err := c.EvalOptions(ctx, opts); err != nil {
					t.Fatal(err)
				}
			}
			// Prime the plan cache, the document index, and the scratch
			// pools so the measurement sees the steady state EvalBatch
			// workers run in, then average over enough rounds to wash out
			// a stray pool miss after a GC.
			for i := 0; i < 5; i++ {
				eval()
			}
			got := testing.AllocsPerRun(100, eval)
			if got > w.ceiling {
				t.Errorf("%s: %.1f allocs per warm evaluation, ceiling %.0f — a hot path regressed; "+
					"profile with `make pprof` and compare EXPERIMENTS.md EXP-ALLOC",
					w.name, got, w.ceiling)
			}
		})
	}
}
