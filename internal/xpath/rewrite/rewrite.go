// Package rewrite implements the semantics-preserving query
// transformations the paper uses in its proofs:
//
//   - PushNegation: the de-Morgan normal form of the Theorem 5.9 proof —
//     "we transform the input query by means of de Morgan's laws in such a
//     way that all occurrences of the not-function are either shifted
//     immediately in front of relational operators RelOp or location
//     paths π. Expressions of the form e1 RelOp e2 where both operands
//     are numbers can be replaced by e1 not(RelOp) e2" — yielding an
//     equivalent query where not() only wraps location paths;
//   - FoldIteratedPredicates: Remark 5.2 — χ::t[e1]...[ek] is equivalent
//     to χ::t[e1 and ... and ek] as long as position() and last() are not
//     used, which moves Core XPath queries with harmless predicate
//     sequences into the pWF/pXPath shape the nauxpda engine accepts;
//   - EliminateDoubleNegation: not(not(e)) ⇒ boolean(e), shrinking the
//     negation depth that Theorems 5.9/6.3 bound;
//   - SplitPositionalConjunctions: the inverse of Remark 5.2 —
//     χ::t[a and p] ⇒ χ::t[p][a] when only p uses position() or last(),
//     so the positional part ranks the step's list by itself.
//
// All rewrites build fresh AST nodes (inputs are never mutated) and each
// is verified against the evaluation engines on randomized queries.
package rewrite

import (
	"xpathcomplexity/internal/xpath/ast"
)

// PushNegation returns an equivalent expression in which not() occurs
// only directly around location paths (or T(l) label tests, which behave
// like atomic conditions). Relational operators under a negation are
// flipped when both operands are numbers; negations over and/or are
// distributed by de Morgan's laws; double negations cancel.
func PushNegation(e ast.Expr) ast.Expr {
	return push(e, false)
}

// nanFree reports whether a numeric expression provably never evaluates
// to NaN: constants, position(), last() and +,-,* compositions thereof
// (the nexpr grammar of Definition 2.6 without div/mod).
func nanFree(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Number:
		return true
	case *ast.Unary:
		return nanFree(x.Operand)
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul:
			return nanFree(x.Left) && nanFree(x.Right)
		default:
			return false
		}
	case *ast.Call:
		return x.Name == "position" || x.Name == "last"
	default:
		return false
	}
}

// negateRelOp returns the complementary operator: = ↔ !=, < ↔ >=, > ↔ <=.
func negateRelOp(op ast.BinOp) ast.BinOp {
	switch op {
	case ast.OpEq:
		return ast.OpNeq
	case ast.OpNeq:
		return ast.OpEq
	case ast.OpLt:
		return ast.OpGe
	case ast.OpLe:
		return ast.OpGt
	case ast.OpGt:
		return ast.OpLe
	case ast.OpGe:
		return ast.OpLt
	default:
		return op
	}
}

// push rewrites e under an optional pending negation.
func push(e ast.Expr, neg bool) ast.Expr {
	switch x := e.(type) {
	case *ast.Binary:
		switch {
		case x.Op == ast.OpAnd || x.Op == ast.OpOr:
			op := x.Op
			if neg {
				// De Morgan: not(a and b) = not(a) or not(b), dually.
				if op == ast.OpAnd {
					op = ast.OpOr
				} else {
					op = ast.OpAnd
				}
			}
			return &ast.Binary{Op: op, Left: push(x.Left, neg), Right: push(x.Right, neg)}
		case x.Op.IsRelational():
			l := push(x.Left, false)
			r := push(x.Right, false)
			if neg && nanFree(x.Left) && nanFree(x.Right) {
				// Flip the operator: not(e1 < e2) ≡ e1 >= e2 for numbers.
				// The flip is unsound in the presence of NaN, so it is
				// applied only to expressions over position(), last(),
				// constants and +/-/* (the WF nexpr grammar the Theorem
				// 5.9 proof addresses); div/mod and conversions keep the
				// explicit not().
				return &ast.Binary{Op: negateRelOp(x.Op), Left: l, Right: r}
			}
			out := ast.Expr(&ast.Binary{Op: x.Op, Left: l, Right: r})
			if neg {
				out = &ast.Call{Name: "not", Args: []ast.Expr{out}}
			}
			return out
		default:
			// Arithmetic or union: negation cannot enter; rebuild.
			out := ast.Expr(&ast.Binary{Op: x.Op, Left: push(x.Left, false), Right: push(x.Right, false)})
			if neg {
				out = &ast.Call{Name: "not", Args: []ast.Expr{out}}
			}
			return out
		}
	case *ast.Call:
		if x.Name == "not" {
			// Double negation folds into the pending flag.
			return push(x.Args[0], !neg)
		}
		if x.Name == "boolean" {
			return push(x.Args[0], neg)
		}
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = push(a, false)
		}
		out := ast.Expr(&ast.Call{Name: x.Name, Args: args})
		if neg {
			out = &ast.Call{Name: "not", Args: []ast.Expr{out}}
		}
		return out
	case *ast.Unary:
		out := ast.Expr(&ast.Unary{Operand: push(x.Operand, false)})
		if neg {
			out = &ast.Call{Name: "not", Args: []ast.Expr{out}}
		}
		return out
	case *ast.Path:
		out := ast.Expr(rebuildPath(x))
		if neg {
			out = &ast.Call{Name: "not", Args: []ast.Expr{out}}
		}
		return out
	default:
		// Literals, numbers, label tests.
		if neg {
			return &ast.Call{Name: "not", Args: []ast.Expr{copyExpr(e)}}
		}
		return copyExpr(e)
	}
}

// rebuildPath rewrites all predicates inside a path (each predicate is an
// independent boolean context, so the pending negation never crosses into
// it).
func rebuildPath(p *ast.Path) *ast.Path {
	out := &ast.Path{Absolute: p.Absolute}
	for _, s := range p.Steps {
		ns := &ast.Step{Axis: s.Axis, Test: s.Test}
		for _, pred := range s.Preds {
			ns.Preds = append(ns.Preds, push(pred, false))
		}
		out.Steps = append(out.Steps, ns)
	}
	return out
}

func copyExpr(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Number:
		return &ast.Number{Val: x.Val}
	case *ast.Literal:
		return &ast.Literal{Val: x.Val}
	case *ast.LabelTest:
		return &ast.LabelTest{Label: x.Label}
	default:
		return e
	}
}

// FoldIteratedPredicates rewrites every step χ::t[e1]...[ek] with k ≥ 2
// into χ::t[e1 and ... and ek], provided no predicate in the sequence
// uses position() or last() and every predicate is boolean- or
// node-set-typed (numeric predicates are positional shorthands and are
// left alone). This is the equivalence of Remark 5.2; it reports whether
// any folding happened.
func FoldIteratedPredicates(e ast.Expr) (ast.Expr, bool) {
	changed := false
	var fold func(e ast.Expr) ast.Expr
	fold = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Path:
			out := &ast.Path{Absolute: x.Absolute}
			for _, s := range x.Steps {
				ns := &ast.Step{Axis: s.Axis, Test: s.Test}
				for _, p := range s.Preds {
					ns.Preds = append(ns.Preds, fold(p))
				}
				if len(ns.Preds) >= 2 && foldable(ns.Preds) {
					conj := ns.Preds[0]
					for _, p := range ns.Preds[1:] {
						conj = &ast.Binary{Op: ast.OpAnd, Left: conj, Right: p}
					}
					ns.Preds = []ast.Expr{conj}
					changed = true
				}
				out.Steps = append(out.Steps, ns)
			}
			return out
		case *ast.Binary:
			return &ast.Binary{Op: x.Op, Left: fold(x.Left), Right: fold(x.Right)}
		case *ast.Unary:
			return &ast.Unary{Operand: fold(x.Operand)}
		case *ast.Call:
			args := make([]ast.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = fold(a)
			}
			return &ast.Call{Name: x.Name, Args: args}
		default:
			return copyExpr(e)
		}
	}
	return fold(e), changed
}

// foldable reports whether a predicate sequence may be conjoined: none of
// the predicates observes position()/last() and none is numeric (a
// positional shorthand).
func foldable(preds []ast.Expr) bool {
	for _, p := range preds {
		if ast.StaticType(p) == ast.TypeNumber {
			return false
		}
		if ast.UsesPositionOrLast(p) {
			return false
		}
	}
	return true
}

// SplitPositionalConjunctions rewrites every predicate e1 and e2 of
// which exactly one side, p, uses position() or last() into the
// predicate pair [p][a], a being the other side; a conjunction chain
// splits into its positional part followed by each position-free
// conjunct. Both forms evaluate p against the same list (the step's
// list as filtered by the predicates before it) with the same
// positions and size, and a position-free conjunct does not care which
// list it filters, so the result is the same. Neither side may be
// number-typed: as a predicate of its own a number is a positional
// shorthand, while under "and" it is a truth value. Remark 5.2's fold
// merges only position-free predicates, so it never undoes the split.
// The split lets an engine rank with the positional predicate alone
// (the VM's fused positional step) and filter afterwards. It reports
// whether anything changed.
func SplitPositionalConjunctions(e ast.Expr) (ast.Expr, bool) {
	changed := false
	var walk func(e ast.Expr) ast.Expr
	walk = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Path:
			out := &ast.Path{Absolute: x.Absolute}
			for _, s := range x.Steps {
				ns := &ast.Step{Axis: s.Axis, Test: s.Test}
				for _, p := range s.Preds {
					split := splitConjunction(walk(p))
					changed = changed || len(split) > 1
					ns.Preds = append(ns.Preds, split...)
				}
				out.Steps = append(out.Steps, ns)
			}
			return out
		case *ast.Binary:
			return &ast.Binary{Op: x.Op, Left: walk(x.Left), Right: walk(x.Right)}
		case *ast.Unary:
			return &ast.Unary{Operand: walk(x.Operand)}
		case *ast.Call:
			args := make([]ast.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = walk(a)
			}
			return &ast.Call{Name: x.Name, Args: args}
		default:
			return copyExpr(e)
		}
	}
	return walk(e), changed
}

// splitConjunction returns the predicate sequence equivalent to the
// single predicate p: [pos][free] for a conjunction whose side pos
// alone uses position() or last() (pos split further the same way),
// [p] otherwise.
func splitConjunction(p ast.Expr) []ast.Expr {
	b, ok := p.(*ast.Binary)
	if !ok || b.Op != ast.OpAnd ||
		ast.StaticType(b.Left) == ast.TypeNumber || ast.StaticType(b.Right) == ast.TypeNumber {
		return []ast.Expr{p}
	}
	pos, free := b.Left, b.Right
	if ast.UsesPositionOrLast(free) {
		pos, free = free, pos
	}
	if !ast.UsesPositionOrLast(pos) || ast.UsesPositionOrLast(free) {
		return []ast.Expr{p}
	}
	return append(splitConjunction(pos), free)
}

// EliminateDoubleNegation removes not(not(e)) pairs, wrapping the inner
// expression in boolean() to preserve the type coercion. It reports
// whether anything changed.
func EliminateDoubleNegation(e ast.Expr) (ast.Expr, bool) {
	changed := false
	var walk func(e ast.Expr) ast.Expr
	walk = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Call:
			if x.Name == "not" {
				if inner, ok := x.Args[0].(*ast.Call); ok && inner.Name == "not" {
					changed = true
					return walk(&ast.Call{Name: "boolean", Args: []ast.Expr{inner.Args[0]}})
				}
			}
			args := make([]ast.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = walk(a)
			}
			return &ast.Call{Name: x.Name, Args: args}
		case *ast.Binary:
			return &ast.Binary{Op: x.Op, Left: walk(x.Left), Right: walk(x.Right)}
		case *ast.Unary:
			return &ast.Unary{Operand: walk(x.Operand)}
		case *ast.Path:
			out := &ast.Path{Absolute: x.Absolute}
			for _, s := range x.Steps {
				ns := &ast.Step{Axis: s.Axis, Test: s.Test}
				for _, p := range s.Preds {
					ns.Preds = append(ns.Preds, walk(p))
				}
				out.Steps = append(out.Steps, ns)
			}
			return out
		default:
			return copyExpr(e)
		}
	}
	return walk(e), changed
}

// CollapseDescendantSteps merges the step pair produced by the '//'
// abbreviation: a bare descendant-or-self::node() step (no predicates)
// followed by a child::, descendant:: or descendant-or-self:: step
// collapses into one descendant-axis step carrying the second step's
// test and predicates. The set equivalences
//
//	dos::node()/child::t[e]      ≡ descendant::t[e]
//	dos::node()/descendant::t[e] ≡ descendant::t[e]
//	dos::node()/dos::t[e]        ≡ dos::t[e]
//	dos::node()/self::t[e]       ≡ dos::t[e]
//
// hold whenever no predicate observes position() or last() (after the
// merge a positional predicate would count within a different node
// list), so positional and numeric predicates block the merge — the
// same guard as Remark 5.2's predicate folding. The left-to-right pass
// collapses chains like //.//a completely. It reports whether anything
// changed.
func CollapseDescendantSteps(e ast.Expr) (ast.Expr, bool) {
	changed := false
	var walk func(e ast.Expr) ast.Expr
	walk = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Path:
			out := &ast.Path{Absolute: x.Absolute}
			for _, s := range x.Steps {
				ns := &ast.Step{Axis: s.Axis, Test: s.Test}
				for _, p := range s.Preds {
					ns.Preds = append(ns.Preds, walk(p))
				}
				if k := len(out.Steps); k > 0 {
					prev := out.Steps[k-1]
					if prev.Axis == ast.AxisDescendantOrSelf &&
						prev.Test.Kind == ast.TestNode && len(prev.Preds) == 0 &&
						(ns.Axis == ast.AxisChild || ns.Axis == ast.AxisDescendant ||
							ns.Axis == ast.AxisDescendantOrSelf || ns.Axis == ast.AxisSelf) &&
						foldable(ns.Preds) {
						if ns.Axis == ast.AxisChild || ns.Axis == ast.AxisDescendant {
							ns.Axis = ast.AxisDescendant
						} else {
							ns.Axis = ast.AxisDescendantOrSelf
						}
						out.Steps[k-1] = ns
						changed = true
						continue
					}
				}
				out.Steps = append(out.Steps, ns)
			}
			return out
		case *ast.Binary:
			return &ast.Binary{Op: x.Op, Left: walk(x.Left), Right: walk(x.Right)}
		case *ast.Unary:
			return &ast.Unary{Operand: walk(x.Operand)}
		case *ast.Call:
			args := make([]ast.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = walk(a)
			}
			return &ast.Call{Name: x.Name, Args: args}
		default:
			return copyExpr(e)
		}
	}
	return walk(e), changed
}
