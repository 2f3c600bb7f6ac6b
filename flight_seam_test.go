package xpathcomplexity

import (
	"context"
	"encoding/json"
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
)

// captureAll returns a recorder that treats every evaluation as slow,
// so each Observe lands deterministically in the (large) slow ring.
func captureAll(capacity int) *FlightRecorder {
	return NewFlightRecorder(FlightRecorderConfig{
		SlowCapacity:  capacity,
		SlowThreshold: 1, // one nanosecond: everything is "slow"
	})
}

func mustDoc(t *testing.T, xml string) *Document {
	t.Helper()
	d, err := ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFlightAcrossEngines: the recorder is an engine-independent seam —
// for one (document, query), every engine's record must agree on the
// engine-independent fields (query text, fragment, result cardinality,
// success), differ only where engines differ (engine name, ops, wall),
// and actually charge operations.
func TestFlightAcrossEngines(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b><c/></b></a><a><b><c/><c/></b></a></r>`)
	q := MustCompile("//a/b[c]")
	engines := []Engine{EngineNaive, EngineCVT, EngineCoreLinear, EngineVM, EngineParallel}

	fr := captureAll(64)
	for _, e := range engines {
		if _, err := q.EvalOptions(evalctx.Root(d), EvalOptions{Engine: e, Flight: fr}); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
	recs := fr.Slow()
	if len(recs) != len(engines) {
		t.Fatalf("%d records, want %d", len(recs), len(engines))
	}
	for i, rec := range recs {
		if rec.Engine != engines[i].String() {
			t.Errorf("record %d engine = %q, want %q", i, rec.Engine, engines[i])
		}
		if rec.Query != "//a/b[c]" || rec.Fragment != recs[0].Fragment {
			t.Errorf("record %d (query %q, fragment %q): engine-independent fields diverge", i, rec.Query, rec.Fragment)
		}
		if rec.Card != 2 {
			t.Errorf("record %d card = %d, want 2", i, rec.Card)
		}
		if rec.Ops <= 0 {
			t.Errorf("record %d (%s) ops = %d, want > 0 (synthesized counter not charged?)", i, rec.Engine, rec.Ops)
		}
		if rec.Err != "" || rec.ErrKind != "" || rec.Cache.String() != "none" {
			t.Errorf("record %d unexpected err/cache state: %+v", i, rec)
		}
	}
}

// TestFlightRecordsStable: retained records must hold only scalars and
// immutable strings. After heavy pool churn from unrelated evaluations
// (the PR 4 arenas recycle scratch aggressively), earlier records must
// be byte-for-byte what they were when captured.
func TestFlightRecordsStable(t *testing.T) {
	d := prepBenchDoc()
	ctx := evalctx.Root(d)
	fr := captureAll(256)

	seed := []string{"//a//b//c", "//a[b and not(c)]", "count(//a)", "/descendant::b/child::c"}
	for _, src := range seed {
		if _, err := MustCompile(src).EvalOptions(ctx, EvalOptions{Flight: fr}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(fr.Slow())
	if err != nil {
		t.Fatal(err)
	}

	// Churn: many evaluations across engines against the same document,
	// recycling every pooled arena and scratch buffer the engines use.
	churn := MustPrepare("//a[b]/c")
	for i := 0; i < 200; i++ {
		for _, e := range []Engine{EngineCVT, EngineCoreLinear, EngineVM} {
			if _, err := churn.EvalOptions(ctx, EvalOptions{Engine: e}); err != nil {
				t.Fatal(err)
			}
		}
	}

	after, err := json.Marshal(fr.Slow()[:len(seed)])
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot again without slicing to keep lengths comparable.
	var full []FlightRecord
	if err := json.Unmarshal(before, &full); err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(full[:len(seed)]); string(after) != string(want) {
		t.Errorf("records mutated after capture:\nbefore: %s\nafter:  %s", want, after)
	}
}

// TestFlightCacheOutcomes: the record's cache field distinguishes the
// leader (miss), the served repeat (hit, zero ops), and the traced
// bypass.
func TestFlightCacheOutcomes(t *testing.T) {
	d := mustDoc(t, `<r><a/><a/></r>`)
	ctx := evalctx.Root(d)
	q := MustCompile("//a")
	cache := NewResultCache(16, 1<<20)
	fr := captureAll(16)

	for i := 0; i < 2; i++ {
		if _, err := q.EvalOptions(ctx, EvalOptions{Cache: cache, Flight: fr}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.EvalOptions(ctx, EvalOptions{Cache: cache, Flight: fr, Trace: NewRingSink(16)}); err != nil {
		t.Fatal(err)
	}

	recs := fr.Slow()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	if got := recs[0].Cache.String(); got != "miss" {
		t.Errorf("first run cache = %q, want miss", got)
	}
	if got := recs[1].Cache.String(); got != "hit" {
		t.Errorf("repeat cache = %q, want hit", got)
	}
	if recs[1].Ops != 0 {
		t.Errorf("cache hit charged %d ops, want 0", recs[1].Ops)
	}
	if got := recs[2].Cache.String(); got != "bypass-traced" {
		t.Errorf("traced run cache = %q, want bypass-traced", got)
	}
}

// TestFlightAutoEngine: EngineAuto runs record the engine the plan
// binding resolved to, once per evaluation.
func TestFlightAutoEngine(t *testing.T) {
	d := mustDoc(t, `<r><a><b/></a></r>`)
	ctx := evalctx.Root(d)
	fr := captureAll(16)

	for _, r := range []struct {
		q      string
		engine Engine
	}{
		{"//a/b", EngineStreaming},                   // pinned: the streaming NFA
		{"//a/b", EngineAuto},                        // downward predicate-free: the bytecode VM
		{"//a[b = 'x']", EngineAuto},                 // path-versus-literal comparison: the VM
		{"//a[position() + 1 = last()]", EngineAuto}, // outside the VM's fragment: cvt
	} {
		if _, err := MustCompile(r.q).EvalOptions(ctx, EvalOptions{Engine: r.engine, Flight: fr}); err != nil {
			t.Fatal(err)
		}
	}

	recs := fr.Slow()
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	for i, want := range []string{"streaming", "vm", "vm", "cvt"} {
		if recs[i].Engine != want {
			t.Errorf("record %d (%s) engine = %q, want %q", i, recs[i].Query, recs[i].Engine, want)
		}
	}
}

// TestFlightErrorKinds: failed runs carry the error text and kind;
// budget and cancellation verdicts classify as such.
func TestFlightErrorKinds(t *testing.T) {
	d := prepBenchDoc()
	ctx := evalctx.Root(d)
	fr := captureAll(16)

	if _, err := MustCompile("//a//b//c").EvalOptions(ctx, EvalOptions{Flight: fr, MaxOps: 1}); err == nil {
		t.Fatal("want budget error")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MustCompile("//a").EvalOptions(ctx, EvalOptions{Flight: fr, Context: canceled}); err == nil {
		t.Fatal("want cancellation error")
	}

	recs := fr.Slow()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].ErrKind != "budget" || recs[0].Err == "" || recs[0].Card != -1 {
		t.Errorf("budget record = %+v", recs[0])
	}
	if recs[1].ErrKind != "canceled" {
		t.Errorf("canceled record = %+v", recs[1])
	}
}

// TestFlightSharedAcrossBatch: EvalBatch workers share one recorder;
// every query in the batch shows up exactly once.
func TestFlightSharedAcrossBatch(t *testing.T) {
	d := mustDoc(t, `<r><a><b/></a><a/></r>`)
	fr := captureAll(64)
	queries := []string{"//a", "//a/b", "count(//a)", "//a[b]"}
	res := EvalBatch(d, queries, EvalOptions{Flight: fr, Workers: 4})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", queries[i], r.Err)
		}
	}
	if st := fr.Stats(); st.Seen != int64(len(queries)) {
		t.Errorf("recorder saw %d evaluations, want %d", st.Seen, len(queries))
	}
	seen := map[string]int{}
	for _, rec := range fr.Slow() {
		seen[rec.Query]++
	}
	for _, src := range queries {
		if seen[src] != 1 {
			t.Errorf("query %q recorded %d times, want once", src, seen[src])
		}
	}
}
