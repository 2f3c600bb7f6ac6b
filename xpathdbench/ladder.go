package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/eval/streaming"
	"xpathcomplexity/internal/server"
	"xpathcomplexity/internal/vm"
)

// The rungs of the layer ladder, each a call into one layer's exported
// functions.
const (
	rungRegistryGet = iota
	rungPlanMiss
	rungPlanHit
	rungStreamingCompile
	rungVMRun
	rungEngine
	rungCacheHit
	rungDaemonNoObs
	rungDaemon
	rungBatch
	rungHTTP
	rungParsePointer
	rungParseColumnar
	rungIndex
	rungFingerprint
	rungRegistryLoad
	rungRegistryDelete
	numRungs
)

var rungNames = [numRungs]string{
	"registry_get", "plan_prepare_miss", "plan_prepare_hit", "streaming_compile", "vm_run",
	"engine_eval", "qcache_hit", "eval_daemon_options_no_obs", "eval_daemon_options", "eval_batch",
	"http_eval", "parse_pointer", "parse_columnar", "index", "fingerprint", "registry_load", "registry_delete",
}

// reps is how often each rung is timed per draw; the median is kept.
const reps = 7

// engines are the engines the serving mix binds to; each gets its
// engine.<e> metrics.
var engines = []string{"streaming", "vm", "cvt"}

type layerResult struct {
	metrics map[string]metric
	correct bool
}

// ladder derives the per-layer metrics: the serving-path split from the
// timed phase's spans and counters, then a replay of a sample of the
// workload's draws through every rung.
func (b *bench) ladder(m *measured) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]metric{}, correct: true}
	put := func(name string, v float64, unit string) { lr.metrics[name] = metric{v, unit} }
	ops := float64(m.ops)

	// Timed phase: request spans.
	b.tracer.join()
	var transport, handler, overhead []float64
	var bytes, evals float64
	for c := range b.tracer.clients {
		for _, s := range b.tracer.clients[c][m.spanStart[c]:b.tracer.nreq[c]] {
			if s.kind != spanEval || s.hEnd == 0 {
				continue
			}
			transport = append(transport, float64((s.end-s.start)-(s.hEnd-s.hStart))/1e3)
			handler = append(handler, float64(s.hEnd-s.hStart)/1e3)
			overhead = append(overhead, float64(s.hEnd-s.hStart)/1e3-float64(s.wallUs))
			bytes += float64(s.bytes)
			evals++
		}
	}
	put("traced.qps", ops/m.elapsed.Seconds(), "ops/s")
	put("net.transport_us", median(transport), "us")
	put("server.handler_us", median(handler), "us")
	put("server.overhead_us", median(overhead), "us")
	put("server.response_bytes", bytes/max(evals, 1), "B")
	put("registry.resident_mb", float64(m.residentBytes)/(1<<20), "MB")
	put("plan.hit_ratio", ratio(m.planHits, m.planHits+m.planMiss), "ratio")
	cs := m.cacheStats
	put("qcache.hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses+cs.InflightWaits), "ratio")
	put("qcache.evictions_per_kop", float64(cs.Evictions)/ops*1e3, "count/kop")
	put("runtime.gc_cycles_per_kop", float64(m.gcCycles)/ops*1e3, "count/kop")
	put("runtime.alloc_bytes_per_op", float64(m.allocBytes)/ops, "B")

	// Engine shares over the queries the clients issued, by the engine
	// each family's plan binds to.
	pc := xpath.NewPlanCache(numFamilies)
	bound := make([]string, numFamilies)
	var total float64
	share := map[string]float64{}
	for f, fam := range families {
		c, err := pc.Prepare(fam.query(fam.hot))
		if err != nil {
			return nil, err
		}
		bound[f] = c.Bound.String()
		share[bound[f]] += float64(m.famCount[f])
		total += float64(m.famCount[f])
	}
	for e := range share {
		if !slices.Contains(engines, e) {
			fmt.Fprintf(os.Stderr, "warning: the mix binds to engine %s, which has no metrics\n", e)
		}
	}
	for _, e := range engines {
		put("engine."+e+".share", share[e]/max(total, 1), "ratio")
	}

	// Replay: documents first (their loads make churn's pool resident
	// for the draws), then the draws.
	draws := b.sample(bound)
	if err := b.replaySites(draws, put, lr); err != nil {
		return nil, err
	}
	if err := b.replayDraws(draws, put, lr); err != nil {
		return nil, err
	}
	return lr, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sample replays the start of the workload's request stream: each
// client's first draws, continued until every engine has a few draws.
func (b *bench) sample(bound []string) []draw {
	var out []draw
	if b.w.perClient {
		// A churn cycle evaluates every family; replay the first cycle of
		// each client.
		for _, pool := range b.pools {
			for f, fam := range families {
				out = append(out, draw{site: pool[0], family: f, konst: fam.hot})
			}
		}
		return out
	}
	rngs := make([]*rand.Rand, numClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(b.cfg.seed*1000 + int64(i)))
	}
	perEngine := map[string]int{}
	covered := func() bool {
		for _, e := range engines {
			if perEngine[e] < 6 {
				return false
			}
		}
		return true
	}
	for len(out) < 2000 && (len(out) < 48 || !covered()) {
		d := b.nextDraw(rngs[len(out)%numClients])
		perEngine[bound[d.family]]++
		out = append(out, d)
	}
	return out
}

// rungCall is one rung's call for a draw; rep counts the rounds.
type rungCall struct {
	rung int
	fn   func(rep int) error
}

// timeRungs calls every rung once per round, for reps rounds, records a
// rung span per call and returns each rung's median in microseconds.
// Rungs whose difference is a metric are timed in the same rounds, so a
// slow stretch of the machine lands on both.
func (b *bench) timeRungs(id int, calls ...rungCall) ([]float64, error) {
	us := make([][]float64, len(calls))
	for r := 0; r < reps; r++ {
		for i, c := range calls {
			t0 := time.Now()
			err := c.fn(r)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rungNames[c.rung], err)
			}
			b.tracer.rung(id, c.rung, t0, t1)
			us[i] = append(us[i], float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
	}
	out := make([]float64, len(calls))
	for i := range us {
		out[i] = median(us[i])
	}
	return out, nil
}

// replaySites times parsing, index and fingerprint builds and registry
// loads and deletes on up to four of the sampled documents.
func (b *bench) replaySites(draws []draw, put func(string, float64, string), lr *layerResult) error {
	var sites []int
	for _, d := range draws {
		if len(sites) < 4 && !slices.Contains(sites, d.site) {
			sites = append(sites, d.site)
		}
	}
	if b.w.perClient {
		sites = []int{b.pools[0][0], b.pools[1][0], b.pools[0][1], b.pools[1][1]}
	}
	reg := b.srv.Registry()
	var nodes, parseP, parseC, index, fprint, bytesP, bytesC float64
	var loads, deletes []float64
	for _, i := range sites {
		s, text := b.sites[i], b.sites[i].xml()
		n := s.nodes()
		id := 1<<20 + i
		parse := func(backend string) (*xpath.Document, error) {
			d, err := xpath.ParseDocumentBackend(strings.NewReader(text), backend)
			if err == nil && d.Size() != n {
				lr.fail("parse %s: %d nodes, the oracle counts %d", backend, d.Size(), n)
			}
			return d, err
		}
		us, err := b.timeRungs(id,
			rungCall{rungParsePointer, func(int) error { _, err := parse(xpath.BackendPointer); return err }},
			rungCall{rungParseColumnar, func(int) error { _, err := parse(xpath.BackendColumnar); return err }})
		if err != nil {
			return err
		}
		parseP += us[0] * 1e3
		parseC += us[1] * 1e3
		// Index and fingerprint builds each run once per document, so
		// every round gets a fresh parse.
		var docs [reps]*xpath.Document
		for _, step := range []struct {
			rung int
			acc  *float64
			fn   func(r int) error
		}{
			{rungIndex, &index, func(r int) error { docs[r].Index(); return nil }},
			{rungFingerprint, &fprint, func(r int) error { docs[r].Fingerprint(); return nil }},
		} {
			for r := range docs {
				if docs[r], err = parse(xpath.BackendPointer); err != nil {
					return err
				}
			}
			us, err := b.timeRungs(id, rungCall{step.rung, step.fn})
			if err != nil {
				return err
			}
			*step.acc += us[0] * 1e3
		}
		nodes += float64(n)
		bytesP += float64(docs[0].ResidentBytes())
		col, err := parse(xpath.BackendColumnar)
		if err != nil {
			return err
		}
		bytesC += float64(col.ResidentBytes())

		// Registry: a resident document is deleted (with its result-cache
		// entries) and loaded again; a churn pool document is loaded and
		// deleted, and left resident for the draws.
		for r := 0; r < reps; r++ {
			backend := b.backends[i]
			if b.w.perClient && r%2 == 1 {
				backend = xpath.BackendColumnar
			}
			del := func() error {
				fp, err := server.ParseFingerprint(b.fps[i])
				if err != nil {
					return err
				}
				t0 := time.Now()
				ok := reg.Delete(fp)
				t1 := time.Now()
				b.tracer.rung(id, rungRegistryDelete, t0, t1)
				deletes = append(deletes, float64(t1.Sub(t0).Nanoseconds())/1e3)
				if !ok {
					lr.fail("registry delete: %s is not resident", b.fps[i])
				}
				b.fps[i] = ""
				return nil
			}
			load := func() error {
				t0 := time.Now()
				info, err := reg.Load(strings.NewReader(text), backend)
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("registry load: %w", err)
				}
				b.tracer.rung(id, rungRegistryLoad, t0, t1)
				loads = append(loads, float64(t1.Sub(t0).Nanoseconds())/1e3)
				if info.Nodes != n {
					lr.fail("registry load: %d nodes, the oracle counts %d", info.Nodes, n)
				}
				b.fps[i] = info.Fingerprint
				return nil
			}
			first, second := del, load
			if b.fps[i] == "" {
				first, second = load, del
			}
			if err := first(); err != nil {
				return err
			}
			if err := second(); err != nil {
				return err
			}
		}
		if b.fps[i] == "" {
			info, err := reg.Load(strings.NewReader(text), b.backends[i])
			if err != nil {
				return fmt.Errorf("registry load: %w", err)
			}
			b.fps[i] = info.Fingerprint
		}
	}
	put("xmltree.parse_pointer_ns_per_node", parseP/nodes, "ns/node")
	put("xmltree.parse_columnar_ns_per_node", parseC/nodes, "ns/node")
	put("xmltree.index_ns_per_node", index/nodes, "ns/node")
	put("xmltree.fingerprint_ns_per_node", fprint/nodes, "ns/node")
	put("xmltree.pointer_bytes_per_node", bytesP/nodes, "B/node")
	put("xmltree.columnar_bytes_per_node", bytesC/nodes, "B/node")
	put("registry.load_us", median(loads), "us")
	put("registry.delete_us", median(deletes), "us")
	return nil
}

func (lr *layerResult) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ladder: "+format+"\n", args...)
	lr.correct = false
}

// checkValue compares an engine-level result with the oracle's answer.
func checkValue(v xpath.Value, want answer) error {
	if want.nodes {
		if ns, ok := v.(xpath.NodeSet); !ok || len(ns) != want.card {
			return fmt.Errorf("got %v, want %s", v, want)
		}
		return nil
	}
	if n, ok := v.(xpath.Number); !ok || float64(n) != want.num {
		return fmt.Errorf("got %v, want %s", v, want)
	}
	return nil
}

// replayDraws climbs the ladder on every sampled draw: registry lookup,
// plan preparation, the bound engine alone (and the VM program or NFA
// lowering beneath it), the result cache, the daemon's evaluation
// options with and without telemetry, EvalBatch, and HTTP.
func (b *bench) replayDraws(draws []draw, put func(string, float64, string), lr *layerResult) error {
	reg := b.srv.Registry()
	acc := map[string][]float64{}
	add := func(name string, v float64) { acc[name] = append(acc[name], v) }
	cl := b.clients[0]
	for id, d := range draws {
		s, fam := b.sites[d.site], families[d.family]
		q, want := fam.query(d.konst), s.expect(d.family, d.konst)
		fp, err := server.ParseFingerprint(b.fps[d.site])
		if err != nil {
			return err
		}
		// verify checks a rung's answer; a wrong one fails the run's
		// correctness, not the replay.
		verify := func(rung int, v xpath.Value, err error) error {
			if err != nil {
				return err
			}
			if err := checkValue(v, want); err != nil {
				lr.fail("%s on %q: %v", rungNames[rung], q, err)
			}
			return nil
		}
		var doc *xpath.Document
		var c *xpath.Compiled
		var pcs [reps]*xpath.PlanCache
		for r := range pcs {
			pcs[r] = xpath.NewPlanCache(1)
		}
		us, err := b.timeRungs(id,
			rungCall{rungRegistryGet, func(int) error {
				var ok bool
				if doc, ok = reg.Get(fp); !ok {
					return fmt.Errorf("document %s is not resident", b.fps[d.site])
				}
				return nil
			}},
			rungCall{rungPlanMiss, func(r int) (err error) { c, err = pcs[r].Prepare(q); return err }},
			rungCall{rungPlanHit, func(r int) (err error) { _, err = pcs[r].Prepare(q); return err }})
		if err != nil {
			return err
		}
		add("registry.get_us", us[0])
		add("plan.prepare_miss_us", us[1])
		add("plan.prepare_hit_us", us[2])
		root := xpath.RootContext(doc)
		e := c.Bound.String()

		engine := rungCall{rungEngine, func(int) error {
			v, err := c.EvalOptions(root, xpath.EvalOptions{})
			return verify(rungEngine, v, err)
		}}
		switch c.Bound {
		case xpath.EngineVM:
			prog, err := c.VMProgram()
			if err != nil {
				return err
			}
			us, err := b.timeRungs(id, engine, rungCall{rungVMRun, func(int) error {
				v, err := prog.Run(root, vm.RunOptions{})
				return verify(rungVMRun, v, err)
			}})
			if err != nil {
				return err
			}
			add("engine.vm.eval_us", us[0])
			add("vm.run_us", us[1])
			add("facade.overhead_us", us[0]-us[1])
		case xpath.EngineStreaming:
			us, err := b.timeRungs(id, engine, rungCall{rungStreamingCompile, func(int) error {
				_, err := streaming.Compile(c.Expr)
				return err
			}})
			if err != nil {
				return err
			}
			add("engine.streaming.eval_us", us[0])
			add("streaming.compile_us", us[1])
		default:
			us, err := b.timeRungs(id, engine)
			if err != nil {
				return err
			}
			add("engine."+e+".eval_us", us[0])
		}
		ctr := new(xpath.Counter)
		if _, err := c.EvalOptions(root, xpath.EvalOptions{Counter: ctr}); err != nil {
			return err
		}
		add("engine."+e+".ops_per_eval", float64(ctr.Ops()))

		// The daemon's evaluation options (server.handleEval), with and
		// without its telemetry, on a private cache warmed by one
		// evaluation, so every timed call is a hit.
		noObs := xpath.EvalOptions{
			Workers: 1, Context: context.Background(), Timeout: server.DefaultEvalTimeout,
			MaxOps: server.DefaultMaxOps, MaxNodeSet: server.DefaultMaxNodeSet,
			Cache: xpath.NewResultCache(0, 0),
		}
		withObs := noObs
		withObs.Metrics = xpath.NewMetrics()
		withObs.Flight = xpath.NewFlightRecorder(xpath.FlightRecorderConfig{})
		if _, err := c.EvalOptions(root, noObs); err != nil {
			return err
		}
		evalWith := func(rung int, opts xpath.EvalOptions) rungCall {
			return rungCall{rung, func(int) error {
				v, err := c.EvalOptions(root, opts)
				return verify(rung, v, err)
			}}
		}
		us, err = b.timeRungs(id,
			evalWith(rungCacheHit, xpath.EvalOptions{Cache: noObs.Cache}),
			evalWith(rungDaemonNoObs, noObs),
			evalWith(rungDaemon, withObs),
			rungCall{rungBatch, func(int) error {
				res := xpath.EvalBatch(doc, []string{q}, withObs)
				return verify(rungBatch, res[0].Value, res[0].Err)
			}},
			rungCall{rungHTTP, func(int) error {
				res, err := cl.evalRequest(b.fps[d.site], []string{q})
				if err != nil {
					return err
				}
				if err := check(res[0], want); err != nil {
					lr.fail("%s on %q: %v", rungNames[rungHTTP], q, err)
				}
				return nil
			}})
		if err != nil {
			return err
		}
		add("qcache.hit_us", us[0])
		add("obs.overhead_us", us[2]-us[1])
		add("batch.overhead_us", us[3]-us[2])
	}
	for _, name := range []string{"registry.get_us", "plan.prepare_miss_us", "plan.prepare_hit_us",
		"streaming.compile_us", "vm.run_us", "facade.overhead_us", "qcache.hit_us", "obs.overhead_us",
		"batch.overhead_us"} {
		put(name, mean(acc[name]), "us")
	}
	for _, e := range engines {
		put("engine."+e+".eval_us", mean(acc["engine."+e+".eval_us"]), "us")
		put("engine."+e+".ops_per_eval", mean(acc["engine."+e+".ops_per_eval"]), "count")
	}
	return nil
}
