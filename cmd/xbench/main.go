// Command xbench runs the experiment suite that reproduces every figure
// and table of the paper (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results):
//
//	f1   Figure 1: per-fragment engine scaling (exponential naive vs
//	     polynomial cvt vs linear corelinear)
//	f2   Figure 2/3: carry-bit adder circuits through Theorem 3.2
//	f4   Figure 4: the ϕ-matching invariant on random circuits
//	f5   Figure 5: graph reachability through the PF reduction
//	t1   Table 1: nauxpda vs cvt on pWF queries
//	t32  Theorem 3.2: naive-vs-cvt separation on reduction queries
//	t42  Theorem 4.2: SAC¹ query growth (DAG vs unfolded)
//	t57  Theorem 5.7: iterated-predicate encoding cost
//	t59  Theorem 5.9: bounded-negation depth scaling
//	t71  Theorem 7.1: data-complexity scaling of the fixed tree query
//	t72  Theorem 7.2: data complexity of full XPath (fixed query)
//	t73  Theorem 7.3: query complexity (fixed document)
//	par  Remark 5.6: parallel evaluator speedup
//	prep plan cache + document index: cold vs warm wall-clock (the one
//	     wall-clock experiment; everything else counts operations)
//	profile observability layer: per-subexpression visit growth of naive
//	     vs cvt on an iterated-predicate query (writes BENCH_OBS.json)
//	guard resource governance: the same op budget that kills the naive
//	     engine lets cvt finish, and deadlines abort naive promptly
//	     (writes BENCH_GUARD.json)
//	alloc allocation profile of warm compiled-query evaluation: steady-
//	     state allocs/op, B/op, and ns/op over the RepeatedQuery and
//	     Figure-1 chain workloads (writes BENCH_ALLOC.json)
//	cache result cache: warm uncached evaluation vs the cache-hit path
//	     over the alloc workloads (writes BENCH_CACHE.json)
//
// Usage:
//
//	xbench            # run everything
//	xbench -run f1,t32
//	xbench -run f5 -seed 7
//	xbench -run alloc -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// experiment is one runnable experiment.
type experiment struct {
	name string
	desc string
	run  func(seed int64)
}

var experiments = []experiment{
	{"f1", "Figure 1: per-fragment engine scaling", expF1},
	{"f2", "Figure 2/3: carry-bit circuits via Theorem 3.2", expF2},
	{"f4", "Figure 4: phi-matching invariant", expF4},
	{"f5", "Figure 5: reachability via PF", expF5},
	{"t1", "Table 1: nauxpda vs cvt on pWF", expT1},
	{"t32", "Theorem 3.2: naive vs cvt separation", expT32},
	{"t42", "Theorem 4.2: SAC1 query growth", expT42},
	{"t57", "Theorem 5.7: iterated predicates", expT57},
	{"t59", "Theorem 5.9: bounded negation", expT59},
	{"t71", "Theorem 7.1: tree reachability data scaling", expT71},
	{"t72", "Theorem 7.2: data complexity", expT72},
	{"t73", "Theorem 7.3: query complexity", expT73},
	{"par", "Remark 5.6: parallel speedup", expPar},
	{"real", "pXPath thesis: realistic XMark-style workload", expReal},
	{"prep", "plan cache + document index: cold vs warm wall-clock", expPrep},
	{"profile", "observability: naive vs cvt visit growth (writes BENCH_OBS.json)", expProfile},
	{"guard", "resource guard: op budget kills naive, cvt completes (writes BENCH_GUARD.json)", expGuard},
	{"alloc", "allocation profile of warm compiled-query evaluation (writes BENCH_ALLOC.json)", expAlloc},
	{"vm", "bytecode VM vs corelinear: warm wall-clock on the EXP-ALLOC families (writes BENCH_VM.json)", expVM},
	{"mix", "serving mix per family: bound engine, warm µs and allocs per eval on both backends (writes BENCH_MIX.json)", expMix},
	{"cache", "result cache: warm uncached evaluation vs cache hit (writes BENCH_CACHE.json)", expCache},
	{"obs2", "flight recorder overhead: disabled vs sampled-out vs capture-all (writes BENCH_OBS2.json)", expObs2},
	{"store", "document storage backends: pointer vs columnar footprint and warm-eval overhead (writes BENCH_STORE.json)", expStore},
}

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated experiment names, or 'all'")
		seed       = flag.Int64("seed", 1, "random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Int64Var(&guardMaxOps, "max-ops", guardMaxOps, "operation budget for the guard experiment")
	flag.DurationVar(&guardTimeout, "timeout", guardTimeout, "deadline for the guard experiment's timeout row")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("\nwrote CPU profile to %s (inspect with `go tool pprof %s`)\n", *cpuprofile, *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("\nwrote heap profile to %s (inspect with `go tool pprof %s`)\n", *memprofile, *memprofile)
		}()
	}
	want := map[string]bool{}
	if *run != "all" {
		for _, name := range strings.Split(*run, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "xbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	for _, e := range experiments {
		if *run != "all" && !want[e.name] {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.name, e.desc)
		e.run(*seed)
	}
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}
