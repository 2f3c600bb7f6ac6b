package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/xmltree"
)

// vmRow is one corelinear-vs-vm warm wall-clock measurement of the
// bytecode-VM experiment, as written to BENCH_VM.json.
type vmRow struct {
	// Name is the workload label (family/docsize).
	Name string `json:"name"`
	// Query is the query text.
	Query string `json:"query"`
	// Nodes is the document size.
	Nodes int `json:"nodes"`
	// CoreLinearNs and VMNs are the warm per-evaluation wall times
	// (machine-dependent; the speedup is the portable number).
	CoreLinearNs int64 `json:"corelinear_ns_per_op"`
	VMNs         int64 `json:"vm_ns_per_op"`
	// VMAllocs is the VM's steady-state allocations per evaluation
	// (machine-independent up to Go version; `make vmgate` holds a
	// ceiling over the same paths).
	VMAllocs int64 `json:"vm_allocs_per_op"`
	// Speedup is CoreLinearNs / VMNs.
	Speedup float64 `json:"speedup"`
}

// vmReport is the top-level BENCH_VM.json document.
type vmReport struct {
	Experiment string  `json:"experiment"`
	Rows       []vmRow `json:"rows"`
}

// vmWorkloads are the EXP-ALLOC warm families, each swept over three
// document sizes: the interpretation overhead the bytecode compiles
// away is per step and per predicate, so the speedup should hold as the
// document grows, not just on small trees.
var vmWorkloads = []struct {
	family string
	query  string
	doc    func(size int) *xmltree.Document
	sizes  []int
}{
	{"random/descendant-chain", "//a//b//c", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/pred", "//a[b]/c", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/path", "/descendant::a/child::b/descendant::c", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/pred-neg", "//a[b and not(c)]", vmRandomDoc, []int{1000, 4000, 16000}},
	{"chain/descendant-chain", "//a//b//c", vmChainDoc, []int{50, 200, 800}},
	{"chain/pred", "//a//b//c[.//a]", vmChainDoc, []int{50, 200, 800}},
	// Positional families (the counting fragment): the VM's sparse rank
	// filter touches only the frontier where corelinear's counting pass
	// is a full-document sweep per positional condition.
	{"random/pos-index", "//a[3]/b", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/pos-last", "//b[last()]", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/pos-range", "//a[position() < 3]/c", vmRandomDoc, []int{1000, 4000, 16000}},
	{"random/pos-rerank", "//a[b][position() = last()]", vmRandomDoc, []int{1000, 4000, 16000}},
}

// vmRandomDoc is the EXP-ALLOC random-document family (same generator
// config and seed as allocRandomDoc) at a parameterized node count.
func vmRandomDoc(nodes int) *xmltree.Document {
	rng := rand.New(rand.NewSource(7))
	return xmltree.RandomDocument(rng, xmltree.GenConfig{
		Nodes: nodes, MaxFanout: 4, Tags: []string{"a", "b", "c", "d"},
		TextProb: 0.2, AttrProb: 0.2,
	})
}

// vmChainDoc is the EXP-OBS/EXP-GUARD chain family at a parameterized
// unit count: 3*units+1 nodes of nested <a><b><c>, maximal depth,
// fanout 1 (allocChainDoc is this shape fixed at 200 units).
func vmChainDoc(units int) *xmltree.Document {
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

// expVM measures warm wall-clock of the corelinear evaluator against
// the bytecode VM on the same plans (EXP-VM): the plan is prepared
// once, the index is built, pools are primed, then each engine's
// evaluation loop is measured with the benchmark driver. The VM runs
// the identical algorithm — same frontier sets, same condition memo,
// same operation charges — with the per-step AST interpretation
// (type switches, recursive descent, per-visit dispatch) compiled away
// into flat bytecode, so the speedup column isolates exactly that
// overhead. Results go to BENCH_VM.json; see EXP-VM in EXPERIMENTS.md
// and docs/VM.md.
func expVM(seed int64) {
	report := vmReport{Experiment: "vm"}
	t := newTable("workload", "docNodes", "corelinear ns/op", "vm ns/op", "vm allocs/op", "speedup")
	for _, w := range vmWorkloads {
		for _, size := range w.sizes {
			d := w.doc(size)
			ctx := xpath.RootContext(d)
			c, err := xpath.Prepare(w.query)
			if err != nil {
				panic(err)
			}
			measure := func(engine xpath.Engine) *testing.BenchmarkResult {
				opts := xpath.EvalOptions{Engine: engine}
				if _, err := c.EvalOptions(ctx, opts); err != nil { // prime index + pools
					panic(err)
				}
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := c.EvalOptions(ctx, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
				return &res
			}
			// Interleaved best-of-N: scheduler and GC noise only ever adds
			// time, so the minimum over alternating runs is the robust
			// estimator of each engine's true cost (single-shot runs at
			// this granularity swing ±20% on a busy machine).
			const reps = 3
			var cl, vm *testing.BenchmarkResult
			for r := 0; r < reps; r++ {
				if c := measure(xpath.EngineCoreLinear); cl == nil || c.NsPerOp() < cl.NsPerOp() {
					cl = c
				}
				if v := measure(xpath.EngineVM); vm == nil || v.NsPerOp() < vm.NsPerOp() {
					vm = v
				}
			}
			row := vmRow{
				Name: fmt.Sprintf("%s/%d", w.family, len(d.Nodes)), Query: w.query, Nodes: len(d.Nodes),
				CoreLinearNs: cl.NsPerOp(), VMNs: vm.NsPerOp(), VMAllocs: vm.AllocsPerOp(),
				Speedup: float64(cl.NsPerOp()) / float64(vm.NsPerOp()),
			}
			report.Rows = append(report.Rows, row)
			t.add(row.Name, row.Nodes, row.CoreLinearNs, row.VMNs, row.VMAllocs,
				fmt.Sprintf("%.2fx", row.Speedup))
		}
	}
	t.print()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_VM.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Println("  wrote BENCH_VM.json")
}
