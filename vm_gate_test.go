// The VM allocation regression gate (`make vmgate`, part of `make
// check`): warm bytecode-VM evaluations must stay under checked-in
// allocs-per-op ceilings. The VM's whole point is that the bound
// program plus pooled machine state make repeated evaluation nearly
// allocation-free — a change that reintroduces a per-node or per-step
// allocation in the dispatch loop fails here instead of surfacing as an
// EXP-VM throughput regression. Measured values as of EXP-VM: 5
// allocs/op warm on every workload (the pooled machine checkout, the
// result wrapper, and the arena handoff).
//
// The race detector's instrumentation allocates, and coverage
// instrumentation can too, so the gate only arms on plain `go test`.

//go:build !race

package xpathcomplexity

import (
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
)

// vmAllocCeilings are the EXP-ALLOC warm workloads over the shared
// 4000-node random document, evaluated on the bytecode VM. Ceilings are
// upper bounds with headroom, not exact counts — tighten when the
// measured numbers improve, never loosen without understanding what
// regressed.
var vmAllocCeilings = []struct {
	name    string
	query   string
	ceiling float64
}{
	{"vm/descendant-chain", "//a//b//c", 10},
	{"vm/pred", "//a[b]/c", 10},
	{"vm/path", "/descendant::a/child::b/descendant::c", 10},
	{"vm/pred-neg", "//a[b and not(c)]", 10},
	// Positional families: the counting opcodes must stay on the pooled
	// arena — rank filtering happens in place on the frontier buffers.
	{"vm/pos-index", "//a[3]/b", 10},
	{"vm/pos-last", "//b[last()]", 10},
	{"vm/pos-range", "//a[position() < 3]/c", 10},
	{"vm/pos-rerank", "//a[b][position() = last()]", 10},
	// Value families: the comparison fill reads leaf string-values
	// without copying them, and count()/sum() reduce the frontier in
	// place — only the boxed number result is new.
	{"vm/compare-string", "//a[b = 't7']/c", 10},
	{"vm/compare-number", "//a[b > 5]", 10},
	{"vm/count", "count(//a[b])", 10},
	{"vm/sum", "sum(//a/b)", 10},
}

func TestVMAllocGate(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates; gate runs uninstrumented")
	}
	d := prepBenchDoc()
	ctx := evalctx.Root(d)
	for _, w := range vmAllocCeilings {
		t.Run(w.name, func(t *testing.T) {
			c := MustPrepare(w.query)
			opts := EvalOptions{Engine: EngineVM}
			eval := func() {
				if _, err := c.EvalOptions(ctx, opts); err != nil {
					t.Fatal(err)
				}
			}
			// Prime the plan cache (which carries the bytecode), the
			// document index and the machine pool, then average over
			// enough rounds to wash out a stray pool miss after a GC.
			for i := 0; i < 5; i++ {
				eval()
			}
			got := testing.AllocsPerRun(100, eval)
			if got > w.ceiling {
				t.Errorf("%s: %.1f allocs per warm evaluation, ceiling %.0f — the VM dispatch loop regressed; "+
					"profile with `make pprof` and compare EXPERIMENTS.md EXP-VM",
					w.name, got, w.ceiling)
			}
		})
	}
}
