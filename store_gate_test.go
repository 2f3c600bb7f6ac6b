// The storage backend regression gate (`make storegate`, part of `make
// check`): the columnar encoding must stay at least 2x smaller than the
// pointer tree on the EXP-ALLOC document families, and evaluating
// through a columnar-backed document's hydrated view must cost the same
// warm allocations and at most 10% more wall time than the pointer
// backend. A change that bloats the compact encoding or puts an
// allocation or indirection on the hydration seam fails here instead of
// surfacing as registry memory pressure in production. Reference
// numbers live in BENCH_STORE.json / EXPERIMENTS.md EXP-STORE.
//
// The race detector skews both allocation counts and wall time, so the
// gate only arms on plain `go test` (the alloc-gate pattern).

//go:build !race

package xpathcomplexity

import (
	"slices"
	"strings"
	"testing"
	"time"

	"xpathcomplexity/internal/xmltree"
)

// storeGateChainDoc is the EXP-ALLOC Figure-1 chain family: one deep
// <a><b><c> spine, the shape least favorable to per-tag interning.
func storeGateChainDoc() *xmltree.Document {
	const units = 200
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < units; i++ {
		b.WriteString("<a><b><c>")
	}
	for i := 0; i < units; i++ {
		b.WriteString("</c></b></a>")
	}
	b.WriteString("</r>")
	d, err := xmltree.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return d
}

// TestStoreGate/memory holds the at-rest footprint contract: the
// columnar store must be at least half the size of the pointer tree for
// the same content (measured: 4.0-4.2x smaller, EXP-STORE).
func TestStoreGateMemory(t *testing.T) {
	families := []struct {
		name string
		doc  func() *xmltree.Document
	}{
		{"random-4k", prepBenchDoc},
		{"chain-200", storeGateChainDoc},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			pd := f.doc()
			cd := xmltree.Compact(f.doc())
			pb, cb := pd.StoreSizeBytes(), cd.StoreSizeBytes()
			if pb < 2*cb {
				t.Errorf("pointer store %d B vs columnar store %d B (%.2fx) — the columnar "+
					"encoding must stay at least 2x smaller; compare BENCH_STORE.json",
					pb, cb, float64(pb)/float64(cb))
			}
			if resident := cd.ResidentBytes(); resident <= cb {
				t.Errorf("columnar resident bytes %d not above store bytes %d — view accounting broke", resident, cb)
			}
		})
	}
}

// TestStoreGateEvalParity holds the evaluation-cost contract: a
// columnar-backed document evaluates through a hydrated view that is a
// plain *Node graph, so warm compiled-query evaluation must allocate
// exactly like the pointer backend and run within 10% of its wall time
// on the EXP-ALLOC workloads.
func TestStoreGateEvalParity(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates and slows hot paths; gate runs uninstrumented")
	}
	pd := prepBenchDoc()
	cd := xmltree.Compact(prepBenchDoc())
	pctx, cctx := RootContext(pd), RootContext(cd)
	for _, w := range allocCeilings {
		t.Run(w.name, func(t *testing.T) {
			c := MustPrepare(w.query)
			opts := EvalOptions{Engine: w.engine}
			evalOn := func(ctx Context) func() {
				return func() {
					if _, err := c.EvalOptions(ctx, opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			peval, ceval := evalOn(pctx), evalOn(cctx)
			for i := 0; i < 5; i++ { // prime index, plan cache, pools
				peval()
				ceval()
			}

			pallocs := testing.AllocsPerRun(50, peval)
			callocs := testing.AllocsPerRun(50, ceval)
			if callocs > pallocs+1 {
				t.Errorf("warm allocs/op: columnar %.1f vs pointer %.1f — the hydrated view "+
					"must evaluate like a pointer tree", callocs, pallocs)
			}

			// Wall time: the median of per-pair columnar/pointer ratios,
			// each pair run back to back so both sides see the same
			// machine load (sibling test binaries share the cores), and
			// the side that goes first alternating between pairs. A
			// failing measurement is retried before it counts.
			sample := func(eval func(), iters int) time.Duration {
				start := time.Now()
				for i := 0; i < iters; i++ {
					eval()
				}
				return time.Since(start)
			}
			per := sample(peval, 3) / 3
			iters := int(10*time.Millisecond/per) + 1
			const pairs = 15
			for attempt := 0; ; attempt++ {
				ratios := make([]float64, pairs)
				for i := range ratios {
					var p, c time.Duration
					if i%2 == 0 {
						p = sample(peval, iters)
						c = sample(ceval, iters)
					} else {
						c = sample(ceval, iters)
						p = sample(peval, iters)
					}
					ratios[i] = float64(c) / float64(p)
				}
				slices.Sort(ratios)
				median := ratios[pairs/2]
				if median <= 1.10 {
					break
				}
				if attempt == 2 {
					t.Errorf("warm wall time: columnar/pointer median ratio %.3f over %d pairs of %d evals "+
						"(%.1f%% over; ceiling 10%%; ratios %.2f..%.2f)",
						median, pairs, iters, 100*(median-1), ratios[0], ratios[pairs-1])
					break
				}
			}
		})
	}
}
