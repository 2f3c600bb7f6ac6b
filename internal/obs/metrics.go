// Package obs is the engine-wide observability layer shared by all five
// evaluators: a registry of named atomic metrics (counters, gauges,
// power-of-two histograms), a structured per-subexpression trace-event
// stream with pluggable sinks, and the aggregation profile behind
// Query.ExplainAnalyze.
//
// The layer is designed around one invariant: when no sink and no
// registry are configured, the instrumented engines allocate nothing and
// pay only a nil check per visit. Every type here has a useful nil form —
// a nil *Metrics hands out nil *Counter/*Gauge/*Histogram handles whose
// methods no-op, and a nil *Tracer returns inactive spans — so engines
// thread the handles unconditionally and never branch on "is observability
// on" themselves.
package obs

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is valid and counts nothing.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time metric. The zero value is ready to use; a nil
// *Gauge is valid and records nothing.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax stores n if it exceeds the current value — the "high-water mark"
// write used for recursion depths and table sizes.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v ≤ 0 and
// bucket i ≥ 1 holds 2^(i-1) ≤ v < 2^i.
const histBuckets = 65

// Histogram accumulates a non-negative integer distribution in
// power-of-two buckets. The zero value is ready to use; a nil *Histogram
// is valid and records nothing.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// HistogramSnapshot is the frozen state of a Histogram.
type HistogramSnapshot struct {
	// Count, Sum and Max summarize all observations.
	Count, Sum, Max int64
	// Buckets maps bucket index to its count; bucket i ≥ 1 holds samples
	// in [2^(i-1), 2^i), bucket 0 holds samples ≤ 0. Empty buckets are
	// omitted.
	Buckets map[int]int64
}

// Mean returns the mean observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// HistogramBucketBounds returns the inclusive value range [lo, hi] of
// bucket i: bucket 0 holds observations ≤ 0 (reported as [0, 0]), bucket
// i ≥ 1 holds [2^(i-1), 2^i − 1]. The exporters use the upper bounds as
// the Prometheus `le` boundaries.
func HistogramBucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= 64 { // unreachable from Observe (int64 inputs fill ≤ bucket 63)
		return 1 << 62, math.MaxInt64
	}
	return 1 << (i - 1), 1<<i - 1
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution from the power-of-two bucket boundaries: the bucket
// containing the rank ⌈q·Count⌉ is located, then the value is linearly
// interpolated by rank within the bucket's [lo, hi] range. The top
// populated bucket is clamped to the exact observed Max, so a histogram
// whose samples share one bucket (or one value) reports exactly. Returns
// 0 when empty; q ≥ 1 returns Max.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.Buckets[i]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == 0 {
				return 0
			}
			lo, hi := HistogramBucketBounds(i)
			if hi > h.Max {
				hi = h.Max // the bucket holding Max cannot exceed it
			}
			if hi <= lo {
				return lo
			}
			frac := float64(rank-cum-1) / float64(n)
			return lo + int64(frac*float64(hi-lo+1))
		}
		cum += n
	}
	return h.Max
}

// P50, P90 and P99 are the conventional latency quantiles.
func (h HistogramSnapshot) P50() int64 { return h.Quantile(0.50) }

// P90 estimates the 90th-percentile observation.
func (h HistogramSnapshot) P90() int64 { return h.Quantile(0.90) }

// P99 estimates the 99th-percentile observation.
func (h HistogramSnapshot) P99() int64 { return h.Quantile(0.99) }

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
		Buckets: make(map[int]int64),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets[i] = n
		}
	}
	return s
}

// Metrics is a registry of named metrics. Handles are created on first
// use and never removed; all handle operations are atomic, so one
// registry may be shared by any number of goroutines, and looking up an
// existing name takes only a read lock. A nil *Metrics is valid: it
// hands out nil handles and snapshots empty.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gaugeFns map[string]func() int64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() int64),
	}
}

// handle returns table[name], registering a zero handle on first use.
func handle[T any](mu *sync.RWMutex, table map[string]*T, name string) *T {
	mu.RLock()
	h := table[name]
	mu.RUnlock()
	if h != nil {
		return h
	}
	mu.Lock()
	defer mu.Unlock()
	if h = table[name]; h == nil {
		h = new(T)
		table[name] = h
	}
	return h
}

// Counter returns the named counter, registering it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	return handle(&m.mu, m.counters, name)
}

// Gauge returns the named gauge, registering it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	return handle(&m.mu, m.gauges, name)
}

// Histogram returns the named histogram, registering it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	return handle(&m.mu, m.hists, name)
}

// GaugeFunc registers a gauge read by calling fn at Snapshot time, for
// state another component already counts. fn runs outside the registry
// lock and must be safe for concurrent use; its value wins over a plain
// gauge of the same name.
func (m *Metrics) GaugeFunc(name string, fn func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gaugeFns[name] = fn
}

// Names of the scratch-arena metrics recorded by RecordScratch.
const (
	// MetricScratchHit counts scratch buffers served from a pool.
	MetricScratchHit = "eval.scratch.hit"
	// MetricScratchMiss counts scratch buffers that needed a heap
	// allocation (cold pools, or sizes beyond the largest pool class).
	MetricScratchMiss = "eval.scratch.miss"
)

// RecordScratch flushes one evaluation's scratch-arena pool statistics
// into the registry as the eval.scratch.{hit,miss} counter pair. A nil
// registry (or an idle evaluation: 0/0) records nothing.
func RecordScratch(m *Metrics, hits, misses int64) {
	if m == nil || (hits == 0 && misses == 0) {
		return
	}
	m.Counter(MetricScratchHit).Add(hits)
	m.Counter(MetricScratchMiss).Add(misses)
}

// Snapshot is the frozen state of a registry at one instant.
type Snapshot struct {
	// Counters and Gauges map metric names to values.
	Counters map[string]int64
	Gauges   map[string]int64
	// Histograms maps metric names to frozen distributions.
	Histograms map[string]HistogramSnapshot
}

// Counter returns the named counter's value (0 when absent). Reading a
// zero-value Snapshot is valid.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot freezes the registry, calling every GaugeFunc. A nil
// *Metrics snapshots empty.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]int64, len(m.gauges)+len(m.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(m.hists)),
	}
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		s.Histograms[name] = h.snapshot()
	}
	fns := maps.Clone(m.gaugeFns)
	m.mu.RUnlock()
	for name, fn := range fns {
		s.Gauges[name] = fn()
	}
	return s
}

// String renders the snapshot as sorted "kind name value" lines — the
// format printed by xpatheval -metrics and documented in
// docs/OBSERVABILITY.md.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter    %-32s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge      %-32s %d\n", name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram  %-32s count=%d sum=%d max=%d mean=%.1f p50=%d p90=%d p99=%d\n",
			name, h.Count, h.Sum, h.Max, h.Mean(), h.P50(), h.P90(), h.P99())
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
