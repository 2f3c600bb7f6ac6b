package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xpath/parser"
)

func TestNilMetricsAndHandlesNoOp(t *testing.T) {
	var m *Metrics
	c := m.Counter("x")
	g := m.Gauge("x")
	h := m.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	c.Add(3)
	c.Inc()
	g.Set(5)
	g.SetMax(7)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	s := m.Snapshot()
	if len(s.Counters) != 0 || s.Counter("x") != 0 || s.Gauge("x") != 0 {
		t.Fatalf("nil registry must snapshot empty, got %+v", s)
	}
	m.GaugeFunc("x", func() int64 { return 1 })
}

func TestDisabledPathAllocatesNothing(t *testing.T) {
	var m *Metrics
	var tr *Tracer
	ctr := new(evalctx.Counter)
	allocs := testing.AllocsPerRun(100, func() {
		m.Counter("engine.ops").Add(1)
		m.Gauge("depth").SetMax(3)
		m.Histogram("frontier").Observe(8)
		sp := tr.Enter(nil, evalctx.Context{}, ctr)
		tr.ExitCard(sp, 4, ctr)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability must not allocate, got %.1f allocs/op", allocs)
	}
}

func TestMetricsRegistryAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("hits").Add(2)
	m.Counter("hits").Inc()
	if same := m.Counter("hits"); same.Value() != 3 {
		t.Fatalf("counter handle not shared: %d", same.Value())
	}
	m.Gauge("size").Set(10)
	m.Gauge("size").SetMax(4) // below current: keeps 10
	m.Gauge("size").SetMax(12)
	m.Histogram("rows").Observe(0)
	m.Histogram("rows").Observe(1)
	m.Histogram("rows").Observe(5)

	s := m.Snapshot()
	if s.Counter("hits") != 3 {
		t.Errorf("hits = %d, want 3", s.Counter("hits"))
	}
	if s.Gauge("size") != 12 {
		t.Errorf("size = %d, want 12", s.Gauge("size"))
	}
	h := s.Histograms["rows"]
	if h.Count != 3 || h.Sum != 6 || h.Max != 5 {
		t.Errorf("rows histogram = %+v", h)
	}
	// 0 → bucket 0, 1 → bucket 1, 5 → bucket 3 ([4,8)).
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[3] != 1 {
		t.Errorf("rows buckets = %v", h.Buckets)
	}
	if h.Mean() != 2 {
		t.Errorf("mean = %v, want 2", h.Mean())
	}

	out := s.String()
	for _, want := range []string{"counter", "hits", "gauge", "size", "histogram", "rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFuncReadAtSnapshot(t *testing.T) {
	m := NewMetrics()
	n := int64(1)
	m.Gauge("docs").Set(99) // a function of the same name wins
	m.GaugeFunc("docs", func() int64 { return n })
	if got := m.Snapshot().Gauge("docs"); got != 1 {
		t.Fatalf("docs = %d, want 1", got)
	}
	n = 0
	if got := m.Snapshot().Gauge("docs"); got != 0 {
		t.Fatalf("docs = %d after the source changed, want 0 (read at snapshot time)", got)
	}
	if s := m.Snapshot().String(); !strings.Contains(s, "docs") {
		t.Fatalf("String() misses the function gauge:\n%s", s)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("ops").Inc()
				m.Gauge("hwm").SetMax(int64(i*1000 + j))
				m.Histogram("h").Observe(int64(j))
			}
		}(i)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counter("ops") != 8000 {
		t.Errorf("ops = %d, want 8000", s.Counter("ops"))
	}
	if s.Gauge("hwm") != 7999 {
		t.Errorf("hwm = %d, want 7999", s.Gauge("hwm"))
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

func TestRingSinkWrap(t *testing.T) {
	r := NewRingSink(3)
	for i := 1; i <= 5; i++ {
		r.Event(Event{Seq: int64(i)})
	}
	got := r.Events()
	if len(got) != 3 || got[0].Seq != 3 || got[1].Seq != 4 || got[2].Seq != 5 {
		t.Fatalf("ring events = %+v, want seqs 3,4,5 oldest-first", got)
	}
	if r.Overwritten() != 2 {
		t.Fatalf("overwritten = %d, want 2", r.Overwritten())
	}
	partial := NewRingSink(4)
	partial.Event(Event{Seq: 9})
	if got := partial.Events(); len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("partial ring events = %+v", got)
	}
}

func TestNDJSONSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	s.Event(Event{Seq: 1, Kind: EnterEvent, Engine: "cvt", Subexpr: 0, Source: "/a", NodeOrd: 0, Pos: 1, Size: 1, Card: -1})
	s.Event(Event{Seq: 2, Kind: ExitEvent, Engine: "cvt", Subexpr: 0, NodeOrd: -1, Card: 3, Ops: 17, Nanos: 250})
	if s.Err() != nil {
		t.Fatalf("sink error: %v", s.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d: %q", len(lines), buf.String())
	}
	var back Event
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Kind != ExitEvent || back.Card != 3 || back.Ops != 17 {
		t.Fatalf("round-trip = %+v", back)
	}
	if !strings.Contains(lines[0], `"kind":"enter"`) {
		t.Errorf("kind should serialize as text: %s", lines[0])
	}
}

func TestSubexprsNumbering(t *testing.T) {
	expr, err := parser.Parse("/descendant::a[b and position()=last()]/child::c")
	if err != nil {
		t.Fatal(err)
	}
	subs := Subexprs(expr)
	if len(subs) < 4 {
		t.Fatalf("want the path, the predicate and its operands numbered, got %d: %+v", len(subs), subs)
	}
	if subs[0].ID != 0 || subs[0].Depth != 0 {
		t.Fatalf("root must be id 0 depth 0, got %+v", subs[0])
	}
	for i, s := range subs {
		if s.ID != i {
			t.Fatalf("ids must be dense pre-order, got %+v", subs)
		}
	}
	// The conjunction is a child of the path, its operands grandchildren.
	if subs[1].Depth != 1 || subs[2].Depth != 2 {
		t.Fatalf("depths wrong: %+v", subs)
	}
}

func TestTracerSpansAndProfile(t *testing.T) {
	expr, err := parser.Parse("/child::a[child::b]")
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfile()
	tr := NewTracer("naive", expr, prof)
	if tr == nil {
		t.Fatal("tracer with sink must be non-nil")
	}
	ctr := new(evalctx.Counter)

	sp := tr.Enter(expr, evalctx.Context{Pos: 1, Size: 1}, ctr)
	ctr.Step(10)
	inner := Subexprs(expr)[1]
	_ = inner
	tr.Exit(sp, value.NodeSet(nil), ctr)

	sp2 := tr.Enter(expr, evalctx.Context{Pos: 1, Size: 1}, ctr)
	ctr.Step(5)
	tr.ExitCard(sp2, 2, ctr)

	if prof.Engine() != "naive" {
		t.Errorf("engine = %q", prof.Engine())
	}
	if prof.Events() != 4 {
		t.Errorf("events = %d, want 4", prof.Events())
	}
	row, ok := prof.Row(0)
	if !ok {
		t.Fatal("no row for subexpr 0")
	}
	if row.Visits != 2 {
		t.Errorf("visits = %d, want 2", row.Visits)
	}
	if row.Ops != 15 {
		t.Errorf("ops = %d, want 15 (10 + 5)", row.Ops)
	}
	if row.MaxCard != 2 {
		t.Errorf("max card = %d, want 2", row.MaxCard)
	}
	rows := prof.Rows()
	if len(rows) != 1 || rows[0].Subexpr != 0 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	if NewTracer("cvt", nil, nil) != nil {
		t.Fatal("nil sink must yield nil tracer")
	}
	if tr.Subexprs() != nil {
		t.Fatal("nil tracer has no numbering")
	}
	sp := tr.Enter(nil, evalctx.Context{}, nil)
	if sp.live {
		t.Fatal("nil tracer must return inactive spans")
	}
	tr.Exit(sp, nil, nil)
	tr.ExitCard(sp, 1, nil)
}

func TestCardinality(t *testing.T) {
	if got := Cardinality(value.NodeSet(nil)); got != 0 {
		t.Errorf("empty node-set card = %d", got)
	}
	if got := Cardinality(value.Number(3)); got != -1 {
		t.Errorf("scalar card = %d, want -1", got)
	}
	if got := Cardinality(nil); got != -1 {
		t.Errorf("nil card = %d, want -1", got)
	}
}
