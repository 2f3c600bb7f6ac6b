package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/workload"
)

// mixRow is one serving-mix family measured on one storage backend, as
// written to BENCH_MIX.json.
type mixRow struct {
	// Family and Query name the workload.ServeMix entry.
	Family string `json:"family"`
	Query  string `json:"query"`
	// Backend is "pointer" or "columnar".
	Backend string `json:"backend"`
	// Engine is the engine the plan binding resolves to.
	Engine string `json:"engine"`
	// NsMin, NsMedian and NsMax spread the warm per-evaluation wall time
	// over Samples interleaved runs (machine-dependent).
	NsMin    int64 `json:"ns_per_op_min"`
	NsMedian int64 `json:"ns_per_op_median"`
	NsMax    int64 `json:"ns_per_op_max"`
	Samples  int   `json:"samples"`
	// Allocs is the steady-state allocations per evaluation
	// (machine-independent up to Go version).
	Allocs int64 `json:"allocs_per_op"`
}

// mixReport is the top-level BENCH_MIX.json document.
type mixReport struct {
	Experiment string   `json:"experiment"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Nodes      int      `json:"doc_nodes"`
	Rows       []mixRow `json:"rows"`
}

// mixSite is the xpathd benchmark's cold-corpus auction site (about
// 1.2k nodes): the document size the engines serve on cache misses.
var mixSite = workload.Config{People: 30, Items: 50, MaxBids: 5}

// expMix measures every serving-mix family under its plan binding, on
// both storage backends (EXP-VM3): the engine EngineAuto picks, and the
// warm wall time and allocations of one uncached evaluation — the cost
// a result-cache miss pays. Results go to BENCH_MIX.json; see EXP-VM3
// in EXPERIMENTS.md.
func expMix(seed int64) {
	d := workload.Auction(rand.New(rand.NewSource(seed)), mixSite)
	backends := []struct {
		name string
		doc  *xpath.Document
	}{{"pointer", d}, {"columnar", xpath.CompactDocument(d)}}
	report := mixReport{
		Experiment: "mix", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Nodes: len(d.Nodes),
	}
	t := newTable("family", "backend", "engine", "µs/eval (median)", "min–max", "allocs/eval")
	const samples = 5
	for _, fam := range workload.ServeMix() {
		c, err := xpath.Prepare(fam.Text)
		if err != nil {
			panic(err)
		}
		for _, be := range backends {
			ctx := xpath.RootContext(be.doc)
			eval := func() {
				if _, err := c.Eval(ctx); err != nil {
					panic(err)
				}
			}
			eval() // prime the index and the scratch pools
			var ns []int64
			var allocs int64
			for i := 0; i < samples; i++ {
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						eval()
					}
				})
				ns = append(ns, res.NsPerOp())
				allocs = res.AllocsPerOp()
			}
			slices.Sort(ns)
			row := mixRow{
				Family: fam.Name, Query: fam.Text, Backend: be.name, Engine: c.Bound.String(),
				NsMin: ns[0], NsMedian: ns[len(ns)/2], NsMax: ns[len(ns)-1], Samples: samples,
				Allocs: allocs,
			}
			report.Rows = append(report.Rows, row)
			t.add(row.Family, row.Backend, row.Engine,
				fmt.Sprintf("%.1f", float64(row.NsMedian)/1e3),
				fmt.Sprintf("%.1f–%.1f", float64(row.NsMin)/1e3, float64(row.NsMax)/1e3),
				fmt.Sprint(row.Allocs))
		}
	}
	t.print()
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_MIX.json", append(buf, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Println("wrote BENCH_MIX.json")
}
