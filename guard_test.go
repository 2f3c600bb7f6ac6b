package xpathcomplexity

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"xpathcomplexity/internal/fragment"
	"xpathcomplexity/internal/xpath/ast"
)

// guardChainDoc builds the EXP-OBS/EXP-GUARD document family: nested
// <a><b><c> units, the duplicate-context worst case for the naive engine
// (cubic visit growth on the pathological query below).
func guardChainDoc(t testing.TB, units int) *Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < units; i++ {
		b.WriteString("<a><b><c>")
	}
	for i := 0; i < units; i++ {
		b.WriteString("</c></b></a>")
	}
	b.WriteString("</r>")
	d, err := ParseDocumentString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pathologicalQuery is the EXP-OBS query: iterated descendant predicates
// give the naive engine its duplicate-context blowup while cvt stays
// bounded by the meaningful contexts.
const pathologicalQuery = "//a//b//c[.//a][.//b]"

func TestGuardPreCanceledContext(t *testing.T) {
	d := guardChainDoc(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{EngineAuto, EngineNaive, EngineCVT, EngineCoreLinear, EngineParallel} {
		t.Run(eng.String(), func(t *testing.T) {
			_, err := MustCompile("//a[b]").EvalOptions(RootContext(d), EvalOptions{
				Engine: eng, Context: ctx,
			})
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("pre-canceled context: err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err should unwrap to context.Canceled: %v", err)
			}
		})
	}
}

// Canceling a pathological naive evaluation mid-flight must return
// promptly: the guard polls the context every few hundred operations, so
// the return lands within milliseconds of the cancel, not after the
// (effectively unbounded) natural runtime.
func TestGuardAsyncCancelNaive(t *testing.T) {
	d := guardChainDoc(t, 200) // far beyond what naive can finish quickly
	q := MustCompile(pathologicalQuery)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineNaive, Context: ctx, DisableIndex: true,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Generous bound to stay robust under -race and loaded CI; the
	// uncanceled run would take orders of magnitude longer.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; should be prompt", elapsed)
	}
}

func TestGuardTimeout(t *testing.T) {
	d := guardChainDoc(t, 200)
	q := MustCompile(pathologicalQuery)
	start := time.Now()
	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineNaive, Timeout: 25 * time.Millisecond, DisableIndex: true,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline expiry should unwrap to context.DeadlineExceeded: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline enforcement took %v; should be prompt", elapsed)
	}
}

// The acceptance scenario of the issue: the same op budget that kills the
// naive engine on the pathological family lets cvt complete — the limit
// separates the engines exactly where the paper says the complexity does.
func TestGuardOpsBudgetSeparatesEngines(t *testing.T) {
	d := guardChainDoc(t, 84)
	q := MustCompile(pathologicalQuery)
	const budget = 2_000_000

	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineNaive, MaxOps: budget, DisableIndex: true,
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("naive under budget %d: err = %v, want ErrBudgetExceeded", budget, err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "ops" {
		t.Errorf("err = %v, want *BudgetError{Limit: ops}", err)
	}

	v, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineCVT, MaxOps: budget, DisableIndex: true,
	})
	if err != nil {
		t.Fatalf("cvt should complete within the same budget: %v", err)
	}
	if ns, ok := v.(NodeSet); !ok || len(ns) == 0 {
		t.Errorf("cvt result = %v, want non-empty node-set", v)
	}
}

// TestGuardBudgetUnitParity pins the guard's accounting to Counter units
// through the pooled scratch-arena evaluation paths: an unguarded run's
// exact op count is, as a MaxOps limit, the tightest budget that still
// completes — one unit less must fail. If pooling ever changed what work
// gets charged (a skipped re-allocation, a cached selection), the two
// ledgers would drift and this fails.
func TestGuardBudgetUnitParity(t *testing.T) {
	d := guardChainDoc(t, 12)
	for _, tc := range []struct {
		engine Engine
		query  string
	}{
		{EngineCVT, pathologicalQuery},
		{EngineCVT, "//c[position() = last()]"},
		{EngineCoreLinear, "//a[b or not(c)]"},
		{EngineParallel, "//a[b or not(c)]"},
	} {
		for _, disableIndex := range []bool{false, true} {
			q := MustCompile(tc.query)
			var ctr Counter
			if _, err := q.EvalOptions(RootContext(d), EvalOptions{
				Engine: tc.engine, Counter: &ctr, DisableIndex: disableIndex,
			}); err != nil {
				t.Fatalf("%v %q unguarded: %v", tc.engine, tc.query, err)
			}
			ops := ctr.Ops()
			if _, err := q.EvalOptions(RootContext(d), EvalOptions{
				Engine: tc.engine, MaxOps: ops, DisableIndex: disableIndex,
			}); err != nil {
				t.Errorf("%v %q (index=%v): failed at MaxOps=%d, its own op count: %v",
					tc.engine, tc.query, !disableIndex, ops, err)
			}
			if _, err := q.EvalOptions(RootContext(d), EvalOptions{
				Engine: tc.engine, MaxOps: ops - 1, DisableIndex: disableIndex,
			}); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%v %q (index=%v): MaxOps=%d err = %v, want ErrBudgetExceeded",
					tc.engine, tc.query, !disableIndex, ops-1, err)
			}
		}
	}
}

func TestGuardMaxDepth(t *testing.T) {
	d := guardChainDoc(t, 10)
	// Deeply nested predicates force evaluator recursion.
	q := MustCompile("//a[b[c[a[b[c]]]]]")
	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineCVT, MaxDepth: 3,
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "depth" {
		t.Fatalf("err = %v, want *BudgetError{Limit: depth}", err)
	}
	// A bound deeper than the query passes.
	if _, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineCVT, MaxDepth: 1 << 20,
	}); err != nil {
		t.Errorf("generous depth bound should pass: %v", err)
	}
}

func TestGuardMaxNodeSet(t *testing.T) {
	d := guardChainDoc(t, 40)
	// The intermediate //a//b bag on the chain family is quadratic in
	// units — exactly the growth MaxNodeSet is there to cap.
	q := MustCompile("//a//b")
	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineNaive, MaxNodeSet: 50, DisableIndex: true,
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "node-set" {
		t.Fatalf("err = %v, want *BudgetError{Limit: node-set}", err)
	}
}

// A panic escaping an engine is recovered at the public Eval boundary and
// returned as a typed error — a malformed hand-built plan cannot crash
// the caller. (Parsed queries cannot reach this: the parser enforces
// function arity.)
func TestGuardPanicRecovery(t *testing.T) {
	expr := &ast.Call{Name: "count"} // count() with no args: engines index args[0]
	q := &Query{Source: "count()", Expr: expr, Class: fragment.Classify(expr)}
	d := guardChainDoc(t, 2)
	m := NewMetrics()
	_, err := q.EvalOptions(RootContext(d), EvalOptions{Engine: EngineCVT, Metrics: m})
	if !errors.Is(err, ErrEvalPanic) {
		t.Fatalf("err = %v, want ErrEvalPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Query != "count()" || pe.Value == nil || len(pe.Stack) == 0 {
		t.Errorf("PanicError incomplete: %+v", pe)
	}
	if got := m.Snapshot().Counter("eval.panics"); got != 1 {
		t.Errorf("eval.panics = %d, want 1", got)
	}
}

// EngineAuto evaluations are tallied under the engine the plan binding
// resolved to (engine.<name>.evals); plans that miss the VM add their
// vm.ineligible.<reason>.
func TestGuardAutoLadderMetrics(t *testing.T) {
	d := guardChainDoc(t, 5)
	ctx := RootContext(d)
	runEngine := func(t *testing.T, q string, e Engine) (Value, MetricsSnapshot) {
		t.Helper()
		m := NewMetrics()
		v, err := MustCompile(q).EvalOptions(ctx, EvalOptions{Engine: e, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return v, m.Snapshot()
	}
	runAuto := func(t *testing.T, q string) (Value, MetricsSnapshot) {
		t.Helper()
		return runEngine(t, q, EngineAuto)
	}
	wantEvals := func(t *testing.T, s MetricsSnapshot, engine string) {
		t.Helper()
		for _, e := range []string{"streaming", "vm", "corelinear", "cvt", "nauxpda"} {
			want := int64(0)
			if e == engine {
				want = 1
			}
			if got := s.Counter("engine." + e + ".evals"); got != want {
				t.Errorf("engine.%s.evals = %d, want %d; counters: %v", e, got, want, s.Counters)
			}
		}
	}

	t.Run("streaming-selected", func(t *testing.T) {
		// The NFA serves only when pinned: the plan binding prefers the VM.
		v, s := runEngine(t, "/descendant::a/child::b", EngineStreaming)
		if len(v.(NodeSet)) != 5 {
			t.Errorf("result = %d nodes, want 5", len(v.(NodeSet)))
		}
		wantEvals(t, s, "streaming")
	})

	t.Run("downward-path-vm-selected", func(t *testing.T) {
		v, s := runAuto(t, "/descendant::a/child::b")
		if len(v.(NodeSet)) != 5 {
			t.Errorf("result = %d nodes, want 5", len(v.(NodeSet)))
		}
		wantEvals(t, s, "vm")
	})

	t.Run("vm-selected", func(t *testing.T) {
		_, s := runAuto(t, "//a[not(b)]")
		wantEvals(t, s, "vm")
	})

	t.Run("decision-queries-bind-statically", func(t *testing.T) {
		// A statically boolean pWF query binds like any other plan: the
		// positional predicate is in the counting fragment, so the VM
		// serves it, and the LOGCFL decision procedure stays explicit.
		v, s := runAuto(t, "boolean(//a[position() = last()])")
		if v != Boolean(true) {
			t.Errorf("result = %v, want true", v)
		}
		wantEvals(t, s, "vm")

		// A positional shape outside the counting fragment misses the VM
		// with a tagged reason and binds to cvt.
		_, s = runAuto(t, "//a[position() + 1 = last()]")
		if got := s.Counter("vm.ineligible.positional-shape"); got != 1 {
			t.Errorf("vm.ineligible.positional-shape = %d, want 1; counters: %v", got, s.Counters)
		}
		wantEvals(t, s, "cvt")
	})

	t.Run("resource-error-not-masked", func(t *testing.T) {
		// A budget verdict is the user's stop request: it must surface,
		// not trigger a retry on a slower engine.
		m := NewMetrics()
		big := guardChainDoc(t, 84)
		_, err := MustCompile(pathologicalQuery).EvalOptions(RootContext(big), EvalOptions{
			Metrics: m, MaxOps: 1000, DisableIndex: true,
		})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
		if got := m.Snapshot().Counter("eval.budget_exceeded"); got != 1 {
			t.Errorf("eval.budget_exceeded = %d, want 1", got)
		}
	})
}

// EngineAuto's answers are indistinguishable from the reference engine's.
func TestGuardAutoMatchesCVT(t *testing.T) {
	d := guardChainDoc(t, 7)
	ctx := RootContext(d)
	for _, src := range []string{
		"/descendant::a/child::b", // streaming
		"//a//b//c",               // streaming, descendant chain
		"//a[b][c]",               // vm via predicates
		"//a[not(b)]",             // negation
		"//a[position()=2]",       // positional
		"count(//a)",              // function
	} {
		q := MustCompile(src)
		auto, err := q.EvalOptions(ctx, EvalOptions{})
		if err != nil {
			t.Fatalf("%q auto: %v", src, err)
		}
		ref, err := q.EvalOptions(ctx, EvalOptions{Engine: EngineCVT})
		if err != nil {
			t.Fatalf("%q cvt: %v", src, err)
		}
		if an, ok := auto.(NodeSet); ok {
			if !an.Equal(ref.(NodeSet)) {
				t.Errorf("%q: auto %d nodes != cvt %d nodes", src, len(an), len(ref.(NodeSet)))
			}
		} else if auto != ref {
			t.Errorf("%q: auto %v != cvt %v", src, auto, ref)
		}
	}
}

// Outcome metrics classify how evaluations end.
func TestGuardOutcomeMetrics(t *testing.T) {
	d := guardChainDoc(t, 30)
	q := MustCompile(pathologicalQuery)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMetrics()
	if _, err := q.EvalOptions(RootContext(d), EvalOptions{Context: ctx, Metrics: m}); err == nil {
		t.Fatal("expected cancellation")
	}
	if got := m.Snapshot().Counter("eval.canceled"); got != 1 {
		t.Errorf("eval.canceled = %d, want 1", got)
	}
}

// Per-query deadlines in EvalBatch: a Timeout applies to each query from
// the moment its evaluation starts, so an expired-on-arrival timeout
// fails every query with ErrCanceled while a generous one passes all.
func TestEvalBatchPerQueryTimeout(t *testing.T) {
	d := guardChainDoc(t, 20)
	queries := []string{"//a", "//b", "//c", "//a[b]", "//b//c", pathologicalQuery}

	res := EvalBatch(d, queries, EvalOptions{Timeout: time.Nanosecond})
	for i, r := range res {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("query %d (%s) with 1ns timeout: err = %v, want ErrCanceled", i, r.Query, r.Err)
		}
		if r.Value != nil {
			t.Errorf("query %d: partial value %v alongside cancellation", i, r.Value)
		}
	}

	res = EvalBatch(d, queries, EvalOptions{Timeout: time.Minute})
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("query %d (%s) with generous timeout: %v", i, r.Query, r.Err)
		}
	}
}

// Concurrent cancellation under the race detector: several workers run
// naive evaluations sharing one caller context; the cancel must stop all
// of them, each reporting either a complete result or ErrCanceled —
// never a partial value.
func TestEvalBatchConcurrentCancel(t *testing.T) {
	d := guardChainDoc(t, 60)
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = pathologicalQuery
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := EvalBatch(d, queries, EvalOptions{
		Engine: EngineNaive, Context: ctx, Workers: 4, DisableIndex: true,
	})
	elapsed := time.Since(start)
	for i, r := range res {
		if r.Err == nil {
			continue // finished before the cancel landed
		}
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("query %d: err = %v, want ErrCanceled", i, r.Err)
		}
		if r.Value != nil {
			t.Errorf("query %d: partial value alongside cancellation", i)
		}
	}
	if elapsed > 10*time.Second {
		t.Errorf("batch cancellation took %v; should be prompt", elapsed)
	}
}

// The parallel engine shares one guard across its goroutines; an op
// budget is enforced on their combined total.
func TestGuardParallelEngineSharedBudget(t *testing.T) {
	d := guardChainDoc(t, 84)
	q := MustCompile("//a[b][c]")
	_, err := q.EvalOptions(RootContext(d), EvalOptions{
		Engine: EngineParallel, Workers: 4, MaxOps: 500, DisableIndex: true,
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// End-to-end conformance check for the round() fix: the sign of zero is
// observable through division, per XPath 1.0 §4.4.
func TestRoundNegativeZeroThroughEngines(t *testing.T) {
	d := guardChainDoc(t, 1)
	ctx := RootContext(d)
	for _, tc := range []struct {
		src  string
		want float64
	}{
		{"1 div round(-0.3)", math.Inf(-1)},
		{"1 div round(-0.5)", math.Inf(-1)},
		{"1 div round(0.3)", math.Inf(1)},
		{"round(0.49999999999999994)", 0},
		{"round(-1.5)", -1},
		{"round(2.5)", 3},
	} {
		// corelinear's fragment (Core XPath) has no arithmetic; the
		// full-XPath engines share funcs.Registry so two suffice.
		for _, eng := range []Engine{EngineNaive, EngineCVT} {
			v, err := MustCompile(tc.src).EvalOptions(ctx, EvalOptions{Engine: eng})
			if err != nil {
				t.Fatalf("%q on %s: %v", tc.src, eng, err)
			}
			if got := float64(v.(Number)); got != tc.want {
				t.Errorf("%q on %s = %v, want %v", tc.src, eng, got, tc.want)
			}
		}
	}
}
