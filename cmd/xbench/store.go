package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/xmltree"
)

// storeMemRow is one memory-per-document measurement of the storage
// experiment: the same content held by each backend.
type storeMemRow struct {
	// Family is the document family label.
	Family string `json:"family"`
	// Nodes is the document size.
	Nodes int `json:"nodes"`
	// PointerBytes is the pointer backend's measured store footprint
	// (the *Node graph itself — view and store are the same thing).
	PointerBytes int64 `json:"pointer_bytes"`
	// ColumnarStoreBytes is the compact columnar encoding alone;
	// ColumnarResidentBytes adds the hydrated node-handle view that
	// evaluation runs on.
	ColumnarStoreBytes    int64 `json:"columnar_store_bytes"`
	ColumnarResidentBytes int64 `json:"columnar_resident_bytes"`
	// PointerBPN and ColumnarBPN are bytes per node for the two stores.
	PointerBPN  float64 `json:"pointer_bytes_per_node"`
	ColumnarBPN float64 `json:"columnar_bytes_per_node"`
	// Ratio is PointerBytes / ColumnarStoreBytes — the at-rest saving a
	// demoted registry entry realizes.
	Ratio float64 `json:"ratio"`
}

// storeEvalRow is one warm-evaluation overhead measurement: the same
// compiled query on a pointer-backed vs a columnar-backed document,
// timed as Samples back-to-back pairs (storePairs).
type storeEvalRow struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Query    string `json:"query"`
	Nodes    int    `json:"nodes"`
	// PointerNsPerOp / ColumnarNsPerOp are the median warm wall times
	// per eval over the pairs.
	PointerNsPerOp  int64 `json:"pointer_ns_per_op"`
	ColumnarNsPerOp int64 `json:"columnar_ns_per_op"`
	// PointerAllocs / ColumnarAllocs are warm allocs per eval — the
	// hydrated view is a plain *Node graph, so these should be equal.
	PointerAllocs  int64 `json:"pointer_allocs_per_op"`
	ColumnarAllocs int64 `json:"columnar_allocs_per_op"`
	// OverheadPct is the median over the pairs of each pair's
	// (columnar-pointer)/pointer wall time, in percent; OverheadMinPct
	// and OverheadMaxPct bound it.
	OverheadMinPct float64 `json:"overhead_pct_min"`
	OverheadPct    float64 `json:"overhead_pct"`
	OverheadMaxPct float64 `json:"overhead_pct_max"`
	Samples        int     `json:"samples"`
}

// storeReport is the top-level BENCH_STORE.json document, in the
// envelope of BENCH_MIX.json.
type storeReport struct {
	Experiment string         `json:"experiment"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Memory     []storeMemRow  `json:"memory"`
	Eval       []storeEvalRow `json:"eval"`
}

// storePairs is the number of back-to-back pointer/columnar timing
// pairs behind each eval row, storeSample the wall time of one side of
// a pair, and storeAllocRuns the evaluations each allocs/op figure
// averages. The first 20-run count after the timing loop now and then
// reads one allocation per op high, on either backend (20 stray
// allocations, such as scratch regrown after a collection); averaging
// 500 runs, as a benchmark loop's b.N does, keeps such one-off
// allocations below the truncation.
const (
	storePairs     = 9
	storeSample    = 20 * time.Millisecond
	storeAllocRuns = 500
)

// storeOverhead times eval on the two backends as storePairs pairs run
// back to back, the side that goes first alternating between pairs (the
// form TestStoreGateEvalParity uses), so both sides of a pair see the
// same machine load. It returns the median ns/op of each side and the
// sorted per-pair overheads in percent.
func storeOverhead(peval, ceval func()) (pns, cns int64, overheads []float64) {
	sample := func(eval func(), iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			eval()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	iters := int(storeSample/time.Duration(sample(peval, 3)+1)) + 1
	var ps, cs []float64
	for i := 0; i < storePairs; i++ {
		var p, c float64
		if i%2 == 0 {
			p, c = sample(peval, iters), sample(ceval, iters)
		} else {
			c, p = sample(ceval, iters), sample(peval, iters)
		}
		ps, cs = append(ps, p), append(cs, c)
		overheads = append(overheads, 100*(c-p)/p)
	}
	slices.Sort(ps)
	slices.Sort(cs)
	slices.Sort(overheads)
	return int64(ps[storePairs/2]), int64(cs[storePairs/2]), overheads
}

// storeMemFamilies are the document families measured for footprint:
// the two EXP-ALLOC shapes plus a larger random document where interned
// tag tables amortize.
var storeMemFamilies = []struct {
	family string
	doc    func() *xmltree.Document
}{
	{"random-4k", allocRandomDoc},
	{"chain-200", allocChainDoc},
	{"random-50k", func() *xmltree.Document {
		rng := rand.New(rand.NewSource(11))
		return xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes: 50000, MaxFanout: 6, Tags: []string{"a", "b", "c", "d", "e"},
			TextProb: 0.25, AttrProb: 0.25,
		})
	}},
}

// expStore compares the document storage backends (EXP-STORE): the
// memory table holds the same content in the pointer encoding, the
// compact columnar encoding, and columnar-plus-hydrated-view; the eval
// table reruns the EXP-ALLOC warm compiled-query workloads on a
// columnar-backed document to price the hydration seam. Results go to
// BENCH_STORE.json; `make storegate` holds the ≥2x store ratio and the
// warm-eval parity as a regression gate.
func expStore(seed int64) {
	report := storeReport{
		Experiment: "store", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	mt := newTable("family", "nodes", "pointer B", "columnar B", "resident B", "ptr B/node", "col B/node", "ratio")
	for _, f := range storeMemFamilies {
		pd := f.doc()
		cd := xmltree.Compact(f.doc())
		n := len(pd.Nodes)
		row := storeMemRow{
			Family: f.family, Nodes: n,
			PointerBytes:          pd.StoreSizeBytes(),
			ColumnarStoreBytes:    cd.StoreSizeBytes(),
			ColumnarResidentBytes: cd.ResidentBytes(),
		}
		row.PointerBPN = float64(row.PointerBytes) / float64(n)
		row.ColumnarBPN = float64(row.ColumnarStoreBytes) / float64(n)
		row.Ratio = float64(row.PointerBytes) / float64(row.ColumnarStoreBytes)
		report.Memory = append(report.Memory, row)
		mt.add(row.Family, row.Nodes, row.PointerBytes, row.ColumnarStoreBytes,
			row.ColumnarResidentBytes, fmt.Sprintf("%.1f", row.PointerBPN),
			fmt.Sprintf("%.1f", row.ColumnarBPN), fmt.Sprintf("%.2fx", row.Ratio))
	}
	mt.print()

	et := newTable("workload", "engine", "ptr ns/op", "col ns/op", "overhead (median)", "min–max", "ptr allocs", "col allocs")
	for _, w := range allocWorkloads {
		pd := w.doc()
		cd := xmltree.Compact(w.doc())
		c, err := xpath.Prepare(w.query)
		if err != nil {
			panic(err)
		}
		opts := xpath.EvalOptions{Engine: w.engine}
		evalOn := func(d *xmltree.Document) func() {
			ctx := xpath.RootContext(d)
			return func() {
				if _, err := c.EvalOptions(ctx, opts); err != nil {
					panic(err)
				}
			}
		}
		peval, ceval := evalOn(pd), evalOn(cd)
		peval() // prime index + pools
		ceval()
		pns, cns, overheads := storeOverhead(peval, ceval)
		row := storeEvalRow{
			Workload: w.name, Engine: w.engine.String(), Query: w.query, Nodes: len(pd.Nodes),
			PointerNsPerOp: pns, ColumnarNsPerOp: cns,
			PointerAllocs:  int64(testing.AllocsPerRun(storeAllocRuns, peval)),
			ColumnarAllocs: int64(testing.AllocsPerRun(storeAllocRuns, ceval)),
			OverheadMinPct: overheads[0], OverheadPct: overheads[storePairs/2],
			OverheadMaxPct: overheads[storePairs-1], Samples: storePairs,
		}
		report.Eval = append(report.Eval, row)
		et.add(row.Workload, row.Engine, row.PointerNsPerOp, row.ColumnarNsPerOp,
			fmt.Sprintf("%+.1f%%", row.OverheadPct),
			fmt.Sprintf("%+.1f%%…%+.1f%%", row.OverheadMinPct, row.OverheadMaxPct),
			row.PointerAllocs, row.ColumnarAllocs)
	}
	et.print()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_STORE.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Println("  wrote BENCH_STORE.json")
}
