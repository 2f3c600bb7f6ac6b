// Command xpathdbench is the repository's end-to-end benchmark: it runs
// xpathd's real handler in-process on a loopback TCP listener, drives one
// workload through two closed-loop clients, checks every answer against
// an oracle computed from the generated documents' records, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of its output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	xpath "xpathcomplexity"
	"xpathcomplexity/internal/server"
)

// numClients is the closed-loop client count: callers of /v1/eval wait
// for their answer before asking again, and two clients keep both cores
// of the reference machine busy without queueing at the admission gate.
const numClients = 2

// maxOpsPerSecond bounds the operations (and, traced, the requests) a
// client can record per second of the timed phase, several times the
// fastest rate seen on two cores; the buffers live outside the Go heap,
// and only the pages written are backed by memory.
const maxOpsPerSecond = 50_000

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hot, cold or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated documents and request draws")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/xpathdbench", "directory for span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: xpathdbench --workload hot|cold|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpathdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpathdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance names what produced a run's figures.
func provenance(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	p, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"commit": commit, "go": runtime.Version(), "cpu": cpuModel(), "gomaxprocs": runtime.GOMAXPROCS(0),
	})
	return string(p)
}

// bench is one run: the daemon on its listener, the clients and the
// workload's documents.
type bench struct {
	cfg     config
	weights [numFamilies]int
	wsum    int
	w       *workloadDef

	sites    []*site  // every generated document
	xml      []string // XML text per site; hot and cold drop it once loaded
	fps      []string // fingerprint per resident site ("" when not resident)
	backends []string // backend each site is loaded with
	pools    [][]int  // churn: each client's pool of site indices

	cache   *xpath.ResultCache
	srv     *server.Server
	hs      *http.Server
	served  chan error
	clients []*client
	tracer  *tracer
}

func run(cfg config) (*result, error) {
	fmt.Println("# provenance:", provenance(cfg))
	b := &bench{cfg: cfg, w: workloads[cfg.workload]}
	var err error
	if b.weights, err = weights(); err != nil {
		return nil, err
	}
	for _, w := range b.weights {
		b.wsum += w
	}
	b.generate()

	// Set-up: daemon boot, the resident set loaded over HTTP and one
	// warm-up pass. Generating documents and answers is excluded.
	runtime.GC()
	setupStart := time.Now()
	if err := b.boot(); err != nil {
		return nil, err
	}
	defer b.shutdown()
	if err := b.w.setup(b); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)
	for _, c := range b.clients {
		if c.failed > 0 || c.wrong > 0 {
			return nil, fmt.Errorf("set-up: %s", c.errMsg)
		}
		c.requests, c.queries, c.loads, c.deletes = 0, 0, 0, 0
		c.famCount = [numFamilies]int64{}
	}

	m, err := b.timed()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: m.correct, Attempted: m.ops, Failed: m.failed}
	if !cfg.trace {
		res.Metrics = m.endToEnd(setup)
		return res, nil
	}
	layers, err := b.ladder(m)
	if err != nil {
		return nil, err
	}
	if !layers.correct {
		res.Correct = false
	}
	res.Metrics = layers.metrics
	b.shutdown()
	b.tracer.join()
	path := filepath.Join(cfg.out, "spans-"+cfg.workload+".ndjson")
	if err := b.tracer.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Println("# spans:", path)
	return res, nil
}

// generate draws the workload's documents from the seed.
func (b *bench) generate() {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for _, sz := range b.w.sizes {
		s := genSite(rng, sz)
		b.sites = append(b.sites, s)
		b.xml = append(b.xml, s.xml())
	}
	b.fps = make([]string, len(b.sites))
	b.backends = make([]string, len(b.sites))
	for i := range b.sites {
		b.backends[i] = xpath.BackendPointer
		if b.w.columnarOdd && i%2 == 1 {
			b.backends[i] = xpath.BackendColumnar
		}
	}
	if b.w.perClient {
		b.pools = make([][]int, numClients)
		for i := range b.sites {
			b.pools[i%numClients] = append(b.pools[i%numClients], i)
		}
	}
}

// boot starts the daemon with its default configuration on a loopback
// listener and creates the clients.
func (b *bench) boot() error {
	b.cache = xpath.NewResultCache(0, 0) // the daemon's default bounds
	b.srv = server.New(server.Config{Cache: b.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := b.srv.Handler()
	capacity := b.cfg.seconds * maxOpsPerSecond
	if b.cfg.trace {
		if b.tracer, err = newTracer(numClients, capacity); err != nil {
			ln.Close()
			return err
		}
		h = b.tracer.wrap(h)
	}
	b.hs = &http.Server{Handler: h}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	for i := 0; i < numClients; i++ {
		rng := rand.New(rand.NewSource(b.cfg.seed*1000 + int64(i)))
		c, err := newClient(i, ln.Addr().String(), rng, capacity, b.tracer)
		if err != nil {
			return err
		}
		b.clients = append(b.clients, c)
	}
	return nil
}

// shutdown stops the daemon and waits for Serve to return; it is safe
// to call twice.
func (b *bench) shutdown() {
	if b.hs == nil {
		return
	}
	b.hs.Close()
	<-b.served
	b.hs = nil
	for _, c := range b.clients {
		c.close()
	}
}

// loadResident loads every site over HTTP through client 0.
func (b *bench) loadResident() error {
	c := b.clients[0]
	for i, s := range b.sites {
		fp, err := c.load(b.xml[i], b.backends[i], s.nodes())
		if err != nil {
			return err
		}
		b.fps[i] = fp
	}
	b.xml = nil
	return nil
}

// warmResident evaluates every family once against every resident site.
func (b *bench) warmResident() error {
	c := b.clients[0]
	for i, s := range b.sites {
		for f, fam := range families {
			if err := b.evalOne(c, b.fps[i], s, f, fam.hot); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalOne sends a single-query eval request and checks the answer.
func (b *bench) evalOne(c *client, fp string, s *site, f, k int) error {
	res, err := c.evalRequest(fp, []string{families[f].query(k)})
	if err != nil {
		return err
	}
	if err := check(res[0], s.expect(f, k)); err != nil {
		c.mismatch("%v", err)
	}
	return nil
}

// drawFamily picks a family by serving-mix weight.
func (b *bench) drawFamily(rng *rand.Rand) int {
	n := rng.Intn(b.wsum)
	for f, w := range b.weights {
		if n < w {
			return f
		}
		n -= w
	}
	return numFamilies - 1
}

// draw is one request of the hot or cold stream: a resident site, a
// family and the family's constant.
type draw struct{ site, family, konst int }

func (b *bench) nextDraw(rng *rand.Rand) draw {
	d := draw{site: rng.Intn(len(b.sites)), family: b.drawFamily(rng)}
	fam := families[d.family]
	d.konst = fam.hot
	if b.w.freshConstants && fam.hasConst() {
		d.konst = rng.Intn(fam.domain)
	}
	return d
}

// measured is what the timed phase yields.
type measured struct {
	ops, failed int64
	correct     bool
	elapsed     time.Duration
	samples     []sample // every operation of both clients

	mallocs, allocBytes uint64
	gcCycles            uint32
	heapBytes           uint64

	cacheStats         xpath.ResultCacheStats // delta over the timed phase
	planHits, planMiss int64
	residentBytes      int64
	famCount           [numFamilies]int64
	spanStart          []int // per client: first span of the timed phase
}

// timed runs the clients closed-loop for the configured seconds and
// checks the independent-path totals.
func (b *bench) timed() (*measured, error) {
	m := &measured{correct: true, spanStart: make([]int, numClients)}
	if b.tracer != nil {
		copy(m.spanStart, b.tracer.nreq)
	}
	snap0 := b.srv.Metrics().Snapshot()
	cache0 := b.cache.Stats()
	plan0 := xpath.DefaultPlanCache().Stats()
	reg0 := b.srv.Registry().Stats()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	deadline := start.Add(time.Duration(b.cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if c.ops == len(c.samples) {
					c.fail(errors.New("sample buffer full"))
					return
				}
				t0 := time.Now()
				if err := b.w.op(b, c); err != nil {
					c.fail(err)
				}
				t1 := time.Now()
				c.samples[c.ops] = sample{
					latNs:  uint32(min(t1.Sub(t0), time.Duration(1<<32-1))),
					doneMs: uint32(t1.Sub(start) / time.Millisecond),
				}
				c.ops++
			}
		}(c)
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live data remains.
	runtime.GC()
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.heapBytes = ms2.HeapAlloc

	snap1 := b.srv.Metrics().Snapshot()
	cache1 := b.cache.Stats()
	plan1 := xpath.DefaultPlanCache().Stats()
	reg1 := b.srv.Registry().Stats()
	m.cacheStats = xpath.ResultCacheStats{
		Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses,
		InflightWaits: cache1.InflightWaits - cache0.InflightWaits,
		Evictions:     cache1.Evictions - cache0.Evictions,
		Invalidations: cache1.Invalidations - cache0.Invalidations,
	}
	m.planHits, m.planMiss = plan1.Hits-plan0.Hits, plan1.Misses-plan0.Misses
	m.residentBytes = reg1.Bytes

	var requests, queries, loads, deletes int64
	for _, c := range b.clients {
		m.ops += int64(c.ops)
		m.failed += c.failed
		requests += c.requests
		queries += c.queries
		loads += c.loads
		deletes += c.deletes
		for f, n := range c.famCount {
			m.famCount[f] += n
		}
		if c.wrong > 0 {
			m.correct = false
		}
		if c.errMsg != "" {
			fmt.Fprintf(os.Stderr, "client %d: %d failed, %d wrong; first: %s\n", c.id, c.failed, c.wrong, c.errMsg)
		}
		m.samples = append(m.samples, c.samples[:c.ops]...)
	}

	// Independent-path totals: what the clients counted against what the
	// daemon, its result cache and its registry counted.
	totals := []struct {
		name         string
		client, prog int64
	}{
		{"requests (server.requests)", requests, snap1.Counter("server.requests") - snap0.Counter("server.requests")},
		{"queries (server.evals)", queries, snap1.Counter("server.evals") - snap0.Counter("server.evals")},
		{"cache-eligible queries (result-cache hits+misses+waits)", queries,
			m.cacheStats.Hits + m.cacheStats.Misses + m.cacheStats.InflightWaits},
		{"loads (registry loads+dedups)", loads, reg1.Loads + reg1.Dedups - reg0.Loads - reg0.Dedups},
		{"deletes (registry deletes)", deletes, reg1.Deletes - reg0.Deletes},
		{"shed requests (server.shed)", 0, snap1.Counter("server.shed") - snap0.Counter("server.shed")},
		{"budget rejections (server.budget_exceeded)", 0,
			snap1.Counter("server.budget_exceeded") - snap0.Counter("server.budget_exceeded")},
		{"registry evictions and demotions", 0,
			reg1.Evictions + reg1.Demotions - reg0.Evictions - reg0.Demotions},
	}
	for _, t := range totals {
		if t.client != t.prog {
			fmt.Fprintf(os.Stderr, "totals: %s: clients counted %d, the daemon %d\n", t.name, t.client, t.prog)
			m.correct = false
		}
	}
	return m, nil
}

// quantile returns the q-quantile of sorted latencies in microseconds,
// by linear interpolation between closest ranks.
func quantile(sorted []uint32, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	v := float64(sorted[i])
	if i+1 < len(sorted) {
		v += (pos - float64(i)) * (float64(sorted[i+1]) - v)
	}
	return v / 1e3
}

// windowed splits the timed phase into equal windows of at least
// minWindowOps operations on average (one per second at most) and
// returns the median over windows of each window's throughput, median
// and 99th-percentile latency. Medians over windows keep a few slow
// seconds of a shared machine from setting a run's figures.
func windowed(samples []sample, elapsed time.Duration) (qps, p50, p99 float64) {
	k := min(max(len(samples)/minWindowOps, 1), max(int(elapsed/time.Second), 1))
	width := elapsed / time.Duration(k)
	wins := make([][]uint32, k)
	for _, s := range samples {
		w := min(int(time.Duration(s.doneMs)*time.Millisecond/width), k-1)
		wins[w] = append(wins[w], s.latNs)
	}
	var q, a, b []float64
	for _, lat := range wins {
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		q = append(q, float64(len(lat))/width.Seconds())
		a = append(a, quantile(lat, 0.50))
		b = append(b, quantile(lat, 0.99))
	}
	return median(q), median(a), median(b)
}

// minWindowOps is the fewest operations a window holds on average, so
// that each window's p99 has ten samples beyond it.
const minWindowOps = 1000

func (m *measured) endToEnd(setup time.Duration) map[string]metric {
	ops := float64(m.ops)
	if len(m.samples) < minWindowOps {
		fmt.Fprintf(os.Stderr, "warning: %d operations leave fewer than ten samples beyond p99\n", len(m.samples))
	}
	qps, p50, p99 := windowed(m.samples, m.elapsed)
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"qps":           {qps, "ops/s"},
		"p50_us":        {p50, "us"},
		"p99_us":        {p99, "us"},
		"allocs_per_op": {float64(m.mallocs) / ops, "count"},
		"heap_mb":       {float64(m.heapBytes) / (1 << 20), "MB"},
	}
}
