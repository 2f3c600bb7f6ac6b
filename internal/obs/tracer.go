package obs

import (
	"sync/atomic"
	"time"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/nodeset"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xpath/ast"
)

// Subexpr describes one node of the query tree in the fixed pre-order
// numbering shared by tracers, profiles and ExplainAnalyze.
type Subexpr struct {
	// ID is the pre-order index (0 = the whole query).
	ID int
	// Source is the subexpression's source form.
	Source string
	// Depth is the nesting depth in the query tree (0 = the whole query);
	// a path's predicate expressions are its children.
	Depth int
}

// Subexprs numbers every distinct subexpression of root in depth-first
// pre-order. Shared subexpressions (DAG-shaped queries, e.g. from the
// Theorem 4.2 reduction) keep their first number.
func Subexprs(root ast.Expr) []Subexpr {
	return subexprsInto(root, make(map[ast.Expr]int))
}

func subexprsInto(root ast.Expr, ids map[ast.Expr]int) []Subexpr {
	var out []Subexpr
	var walk func(e ast.Expr, depth int)
	walk = func(e ast.Expr, depth int) {
		if e == nil {
			return
		}
		if _, ok := ids[e]; ok {
			return
		}
		ids[e] = len(out)
		out = append(out, Subexpr{ID: len(out), Source: e.String(), Depth: depth})
		switch x := e.(type) {
		case *ast.Path:
			for _, s := range x.Steps {
				for _, p := range s.Preds {
					walk(p, depth+1)
				}
			}
		case *ast.Binary:
			walk(x.Left, depth+1)
			walk(x.Right, depth+1)
		case *ast.Unary:
			walk(x.Operand, depth+1)
		case *ast.Call:
			for _, a := range x.Args {
				walk(a, depth+1)
			}
		}
	}
	walk(root, 0)
	return out
}

// Tracer adapts an engine's recursive evaluation to a TraceSink: it
// numbers the query tree once at construction, then emits paired
// enter/exit events with the context, result cardinality, operation
// delta and wall time of every visit.
//
// A nil *Tracer is the disabled form and is free: Enter returns an
// inactive Span without reading the counter or the clock, and the Exit
// family returns immediately. Engines therefore call the tracer
// unconditionally on their hot paths.
//
// The id map is immutable after construction and the sequence counter is
// atomic, so one Tracer may be shared by concurrent goroutines provided
// the sink is concurrency-safe (all sinks in this package are).
type Tracer struct {
	engine string
	sink   TraceSink
	ids    map[ast.Expr]int
	subs   []Subexpr
	seq    atomic.Int64
}

// NewTracer builds a tracer for one evaluation of root by the named
// engine, emitting into sink. A nil sink yields a nil (disabled) tracer.
func NewTracer(engine string, root ast.Expr, sink TraceSink) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{engine: engine, sink: sink, ids: make(map[ast.Expr]int)}
	t.subs = subexprsInto(root, t.ids)
	return t
}

// Subexprs returns the tracer's query-tree numbering.
func (t *Tracer) Subexprs() []Subexpr {
	if t == nil {
		return nil
	}
	return t.subs
}

// Span links an Enter to its Exit. The zero Span is inactive.
type Span struct {
	id    int
	ops   int64
	start time.Time
	live  bool
}

// Enter records the start of one (subexpression, context) visit and
// returns the span to close with Exit. ctr may be nil.
func (t *Tracer) Enter(expr ast.Expr, ctx evalctx.Context, ctr *evalctx.Counter) Span {
	if t == nil {
		return Span{}
	}
	id, ok := t.ids[expr]
	src := ""
	if ok {
		src = t.subs[id].Source
	} else {
		id = -1
		src = expr.String()
	}
	ord := -1
	if ctx.Node != nil {
		ord = int(ctx.Node.Ord)
	}
	t.sink.Event(Event{
		Seq: t.seq.Add(1), Kind: EnterEvent, Engine: t.engine,
		Subexpr: id, Source: src, NodeOrd: ord, Pos: ctx.Pos, Size: ctx.Size,
		Card: -1,
	})
	return Span{id: id, ops: ctr.Ops(), start: time.Now(), live: true}
}

// Exit closes a span with a value result; the cardinality recorded is
// the node count for node-set values and -1 otherwise.
func (t *Tracer) Exit(sp Span, v value.Value, ctr *evalctx.Counter) {
	if t == nil || !sp.live {
		return
	}
	t.exit(sp, Cardinality(v), ctr)
}

// ExitCard closes a span with an explicit result cardinality.
func (t *Tracer) ExitCard(sp Span, card int, ctr *evalctx.Counter) {
	if t == nil || !sp.live {
		return
	}
	t.exit(sp, card, ctr)
}

// ExitSet closes a span whose result is a dense node set; the
// (linear-time) member count is only taken when the span is live.
func (t *Tracer) ExitSet(sp Span, s nodeset.Set, ctr *evalctx.Counter) {
	if t == nil || !sp.live {
		return
	}
	t.exit(sp, s.Count(), ctr)
}

func (t *Tracer) exit(sp Span, card int, ctr *evalctx.Counter) {
	t.sink.Event(Event{
		Seq: t.seq.Add(1), Kind: ExitEvent, Engine: t.engine,
		Subexpr: sp.id, NodeOrd: -1, Card: card,
		Ops: ctr.Ops() - sp.ops, Nanos: time.Since(sp.start).Nanoseconds(),
	})
}

// Cardinality reports the node count of a node-set value, or -1 for
// scalars and nil.
func Cardinality(v value.Value) int {
	if ns, ok := v.(value.NodeSet); ok {
		return len(ns)
	}
	return -1
}
