package xpathcomplexity

import (
	"fmt"
	"strings"
	"time"

	"xpathcomplexity/internal/obs"
)

// teeSink duplicates trace events to two sinks, so ExplainAnalyze can
// profile a run while still feeding a caller-provided sink.
type teeSink struct{ a, b obs.TraceSink }

func (t teeSink) Event(e obs.Event) { t.a.Event(e); t.b.Event(e) }

// AnalyzeResult carries the measured half of an ExplainAnalyze run, for
// callers that want the numbers rather than the rendered report.
type AnalyzeResult struct {
	// Engine is the engine that ran (after EngineAuto resolution).
	Engine Engine
	// Value is the query result.
	Value Value
	// Wall is the evaluation wall time.
	Wall time.Duration
	// Ops is the elementary-operation total of the run.
	Ops int64
	// Subexprs is the pre-order numbering of the query tree.
	Subexprs []obs.Subexpr
	// Profile aggregates the run's trace events per subexpression.
	Profile *Profile
	// Metrics is the run's metrics snapshot.
	Metrics MetricsSnapshot
	// CacheOutcome describes the run's relationship to opts.Cache, when
	// one was attached: analysis always traces, and traced runs bypass
	// the cache, so this reports whether an untraced evaluation with the
	// same options would have been served from cache. Empty when no
	// cache was attached.
	CacheOutcome string
}

// ExplainAnalyze evaluates the query from the document root and merges
// the static Explain report with the measured per-subexpression profile:
// visit counts, operation totals, wall time and maximum result
// cardinality per subexpression, followed by the run's metrics. The
// visit-count column is the growth number the paper is about — on an
// iterated-predicate query the naive engine's visits blow up while cvt's
// stay bounded by the meaningful contexts (see EXPERIMENTS.md, EXP-OBS).
func (q *Query) ExplainAnalyze(d *Document) (string, error) {
	return q.ExplainAnalyzeOptions(RootContext(d), EvalOptions{})
}

// ExplainAnalyzeOptions is ExplainAnalyze with explicit context and
// options. The options' Trace sink (if any) still receives every event;
// Metrics (if any) is used directly, so the caller can aggregate across
// several analyzed runs.
func (q *Query) ExplainAnalyzeOptions(ctx Context, opts EvalOptions) (string, error) {
	res, err := q.analyze(ctx, opts)
	if err != nil {
		return "", err
	}
	return q.Explain() + renderAnalysis(res), nil
}

// Analyze runs the query once with profiling enabled and returns the
// measured numbers (the machine-readable half of ExplainAnalyze).
func (q *Query) Analyze(ctx Context, opts EvalOptions) (AnalyzeResult, error) {
	return q.analyze(ctx, opts)
}

func (q *Query) analyze(ctx Context, opts EvalOptions) (AnalyzeResult, error) {
	prof := obs.NewProfile()
	if opts.Trace != nil {
		opts.Trace = teeSink{a: prof, b: opts.Trace}
	} else {
		opts.Trace = prof
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics()
	}
	if opts.Counter == nil {
		opts.Counter = new(Counter)
	}
	startOps := opts.Counter.Ops()
	start := time.Now()
	v, err := q.EvalOptions(ctx, opts)
	if err != nil {
		return AnalyzeResult{}, err
	}
	cacheOutcome := ""
	if opts.Cache != nil && ctx.Node != nil {
		// Probe the key an untraced run would use: EngineAuto resolves
		// through the plan binding, not the traced tree engine.
		probe := opts
		if probe.Engine == EngineAuto {
			probe.Engine = q.plan().Bound
		}
		if opts.Cache.Contains(q.cacheKey(ctx, probe)) {
			cacheOutcome = "bypass (analysis traces); entry present — an untraced run would hit"
		} else {
			cacheOutcome = "bypass (analysis traces); no entry — an untraced run would miss"
		}
	}
	return AnalyzeResult{
		Engine:       q.resolveEngine(opts.Engine),
		Value:        v,
		Wall:         time.Since(start),
		Ops:          opts.Counter.Ops() - startOps,
		Subexprs:     obs.Subexprs(q.Expr),
		Profile:      prof,
		Metrics:      opts.Metrics.Snapshot(),
		CacheOutcome: cacheOutcome,
	}, nil
}

// renderAnalysis renders the measured rows appended to Explain's static
// report. Operation and visit counts are machine-independent; the wall
// times are not (golden tests scrub them).
func renderAnalysis(res AnalyzeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze:    engine=%s time=%s ops=%d result=%s\n",
		res.Engine, res.Wall, res.Ops, describeValue(res.Value))
	if res.CacheOutcome != "" {
		fmt.Fprintf(&b, "cache:      %s\n", res.CacheOutcome)
	}
	b.WriteString("profile:    id source                                    visits          ops       time  maxcard\n")
	for _, sub := range res.Subexprs {
		row, _ := res.Profile.Row(sub.ID)
		src := strings.Repeat("  ", sub.Depth) + sub.Source
		if len(src) > 40 {
			src = src[:37] + "..."
		}
		card := "-"
		if row.MaxCard >= 0 {
			card = fmt.Sprint(row.MaxCard)
		}
		fmt.Fprintf(&b, "          %4d %-40s %7d %12d %10s %8s\n",
			sub.ID, src, row.Visits, row.Ops, time.Duration(row.Nanos), card)
	}
	if other, ok := res.Profile.Row(-1); ok {
		fmt.Fprintf(&b, "          %4s %-40s %7d %12d %10s %8s\n",
			"-", "(outside numbered tree)", other.Visits, other.Ops, time.Duration(other.Nanos), "-")
	}
	if s := res.Metrics.String(); s != "" {
		b.WriteString("metrics:\n")
		for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}

// describeValue summarizes a result value for the analyze header.
func describeValue(v Value) string {
	if ns, ok := v.(NodeSet); ok {
		return fmt.Sprintf("node-set(%d)", len(ns))
	}
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s(%s)", v.Kind(), v)
}

// ExplainAnalyze evaluates the prepared plan from the document root with
// the bound engine and renders the merged static + measured report. The
// profile rows are numbered over the rewritten plan, which is what the
// engine actually ran.
func (c *Compiled) ExplainAnalyze(d *Document) (string, error) {
	return c.ExplainAnalyzeOptions(RootContext(d), EvalOptions{})
}

// ExplainAnalyzeOptions is Compiled.ExplainAnalyze with explicit context
// and options. Analysis always traces, so EngineAuto profiles the tree
// engine the plan's fragment recommends (see Query.EvalOptions).
func (c *Compiled) ExplainAnalyzeOptions(ctx Context, opts EvalOptions) (string, error) {
	return c.planQuery.ExplainAnalyzeOptions(ctx, opts)
}
