// Package counting implements the positional-predicate (counting)
// extension shared by the corelinear tree engine, the bytecode VM and
// the fragment classifier: recognition of the pWF comparison shapes —
// integer comparisons of position()/last() against compile-time
// constants and each other, plus the bare number-predicate forms [k],
// [last()], [position()] — and their whole-document set semantics.
//
// The key observation making these shapes linear-time (the paper's
// Figure 1 places the positional fragment in PTIME) is that on the
// child and attribute axes a node's proximity position and context
// size are functions of the node alone: the rank of c among its
// parent's test-passing children does not depend on which context the
// step selected c from, because every child has exactly one parent.
// The condition therefore compiles to one whole-document node set —
// exactly the representation the set-based engines already use — at
// one O(|D|) counting pass per distinct condition (Fill). Axes whose
// selections are singletons (self, parent) fold to constants
// (position 1 of 1); every other axis is rejected and falls back to
// the per-context engines.
//
// All three consumers must agree on the fragment boundary, so the
// recognizers and the Check walk live here rather than in any one
// engine.
package counting

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"xpathcomplexity/internal/nodeset"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// ErrNotCounting reports a query outside the counting fragment: Core
// XPath plus the positional comparison shapes this package recognizes.
var ErrNotCounting = errors.New("query is not in the counting fragment")

// Kind enumerates comparison operand kinds.
type Kind uint8

// Operand kinds: the two context functions and a folded constant.
const (
	KindPosition Kind = iota
	KindLast
	KindConst
)

// Operand is one side of a positional comparison.
type Operand struct {
	// Kind selects position(), last() or a constant.
	Kind Kind
	// Const is the folded numeric value for KindConst.
	Const float64
}

func (o Operand) value(pos, last int) float64 {
	switch o.Kind {
	case KindPosition:
		return float64(pos)
	case KindLast:
		return float64(last)
	default:
		return o.Const
	}
}

// String spells the operand in disassembly form: "position", "last" or
// the shortest numeric literal that parses back exactly.
func (o Operand) String() string {
	switch o.Kind {
	case KindPosition:
		return "position"
	case KindLast:
		return "last"
	default:
		return strconv.FormatFloat(o.Const, 'g', -1, 64)
	}
}

// ParseOperand inverts Operand.String.
func ParseOperand(s string) (Operand, error) {
	switch s {
	case "position":
		return Operand{Kind: KindPosition}, nil
	case "last":
		return Operand{Kind: KindLast}, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Operand{}, fmt.Errorf("counting: bad operand %q: %v", s, err)
	}
	return Operand{Kind: KindConst, Const: f}, nil
}

// Cmp is a recognized positional comparison, evaluated per (proximity
// position, context size) pair. Cmp is comparable and small, so
// programs pool it like any other constant.
type Cmp struct {
	// Op is one of the six relational operators.
	Op ast.BinOp
	// Left and Right are the comparison operands.
	Left, Right Operand
}

// Eval applies the comparison at proximity position pos in a context
// of size last, with the numeric semantics of value.Compare (IEEE
// comparisons on float64).
func (c Cmp) Eval(pos, last int) bool {
	l, r := c.Left.value(pos, last), c.Right.value(pos, last)
	switch c.Op {
	case ast.OpEq:
		return l == r
	case ast.OpNeq:
		return l != r
	case ast.OpLt:
		return l < r
	case ast.OpLe:
		return l <= r
	case ast.OpGt:
		return l > r
	case ast.OpGe:
		return l >= r
	}
	return false
}

// UsesLast reports whether evaluating the comparison needs the context
// size (so Fill can skip its counting pass otherwise).
func (c Cmp) UsesLast() bool {
	return c.Left.Kind == KindLast || c.Right.Kind == KindLast
}

// Cond is a recognized positional condition: either a constant boolean
// (comparisons of two folded constants, numbers in boolean context) or
// a comparison evaluated per rank.
type Cond struct {
	// IsConst marks a condition folded to a constant.
	IsConst bool
	// Const is the folded value when IsConst.
	Const bool
	// Cmp is the comparison otherwise.
	Cmp Cmp
}

func constCond(v bool) Cond { return Cond{IsConst: true, Const: v} }

// FoldConst evaluates a compile-time-constant numeric expression:
// number literals, unary minus and the arithmetic operators over
// constant operands, with value.Arith semantics.
func FoldConst(e ast.Expr) (float64, bool) {
	switch x := e.(type) {
	case *ast.Number:
		return x.Val, true
	case *ast.Unary:
		v, ok := FoldConst(x.Operand)
		return -v, ok
	case *ast.Binary:
		if !x.Op.IsArithmetic() {
			return 0, false
		}
		l, ok := FoldConst(x.Left)
		if !ok {
			return 0, false
		}
		r, ok := FoldConst(x.Right)
		if !ok {
			return 0, false
		}
		return value.Arith(x.Op, l, r), true
	}
	return 0, false
}

// operand recognizes one comparison side: position(), last(), or a
// constant numeric expression.
func operand(e ast.Expr) (Operand, bool) {
	if c, ok := e.(*ast.Call); ok && len(c.Args) == 0 {
		switch c.Name {
		case "position":
			return Operand{Kind: KindPosition}, true
		case "last":
			return Operand{Kind: KindLast}, true
		}
	}
	if v, ok := FoldConst(e); ok {
		return Operand{Kind: KindConst, Const: v}, true
	}
	return Operand{}, false
}

// foldCmp folds comparisons that need no rank at all: both operands
// constant, or a NaN constant operand (position() and last() are never
// NaN, so only the operator decides — keeping NaN out of the constant
// pools, where it would break comparability).
func foldCmp(c Cmp) Cond {
	if c.Left.Kind == KindConst && c.Right.Kind == KindConst {
		return constCond(c.Eval(0, 0))
	}
	if (c.Left.Kind == KindConst && math.IsNaN(c.Left.Const)) ||
		(c.Right.Kind == KindConst && math.IsNaN(c.Right.Const)) {
		return constCond(c.Op == ast.OpNeq)
	}
	return Cond{Cmp: c}
}

// RecognizeCmp recognizes a relational comparison whose operands are
// position(), last() or constants, folding the rank-independent cases.
func RecognizeCmp(b *ast.Binary) (Cond, bool) {
	if !b.Op.IsRelational() {
		return Cond{}, false
	}
	l, ok := operand(b.Left)
	if !ok {
		return Cond{}, false
	}
	r, ok := operand(b.Right)
	if !ok {
		return Cond{}, false
	}
	return foldCmp(Cmp{Op: b.Op, Left: l, Right: r}), true
}

// RecognizeRoot recognizes the predicate-root special forms, where a
// number-typed result selects by proximity position (the XPath
// number-predicate rule): [k] means position() = k, [last()] means
// position() = last(), [position()] is always true. Boolean-typed
// comparisons recognize as in any boolean context. Expressions that
// are not positional special forms (boolean connectives, paths, ...)
// return ok=false and compile through the ordinary condition walk.
func RecognizeRoot(e ast.Expr) (Cond, bool) {
	if c, ok := e.(*ast.Call); ok && len(c.Args) == 0 {
		switch c.Name {
		case "position":
			// position() = position(): every selected node keeps.
			return constCond(true), true
		case "last":
			return foldCmp(Cmp{Op: ast.OpEq, Left: Operand{Kind: KindPosition}, Right: Operand{Kind: KindLast}}), true
		}
	}
	if b, ok := e.(*ast.Binary); ok {
		return RecognizeCmp(b)
	}
	if v, ok := FoldConst(e); ok {
		if math.IsNaN(v) {
			return constCond(false), true // position() is never NaN
		}
		return foldCmp(Cmp{Op: ast.OpEq, Left: Operand{Kind: KindPosition}, Right: Operand{Kind: KindConst, Const: v}}), true
	}
	return Cond{}, false
}

// RecognizeBool recognizes a positional leaf in boolean context:
// relational comparisons as above, and number-typed constants (and the
// always-≥1 position()/last() calls), which convert by the ≠0 rule.
func RecognizeBool(e ast.Expr) (Cond, bool) {
	if c, ok := e.(*ast.Call); ok && len(c.Args) == 0 {
		switch c.Name {
		case "position", "last":
			return constCond(true), true // both are always ≥ 1
		}
	}
	if b, ok := e.(*ast.Binary); ok {
		return RecognizeCmp(b)
	}
	if v, ok := FoldConst(e); ok {
		return constCond(v != 0 && !math.IsNaN(v)), true
	}
	return Cond{}, false
}

// Sensitive reports whether a boolean-context condition expression
// depends on the context position — i.e. contains a non-constant
// positional comparison outside any nested path (positions inside a
// nested path bind to that path's own steps).
func Sensitive(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpUnion:
			return Sensitive(x.Left) || Sensitive(x.Right)
		}
	case *ast.Call:
		switch x.Name {
		case "not", "boolean":
			if len(x.Args) == 1 {
				return Sensitive(x.Args[0])
			}
		}
	}
	if c, ok := RecognizeBool(e); ok {
		return !c.IsConst
	}
	return false
}

// SensitiveRoot is Sensitive for a whole predicate, honouring the
// predicate-root special forms ([k] is positional, [3 < 4] is not).
func SensitiveRoot(e ast.Expr) bool {
	if c, ok := RecognizeRoot(e); ok {
		return !c.IsConst
	}
	return Sensitive(e)
}

// SingletonAxis reports whether the axis selects at most one node from
// any context, so every selected node has position 1 of 1 and every
// positional condition on the step folds to a constant.
func SingletonAxis(a ast.Axis) bool {
	return a == ast.AxisSelf || a == ast.AxisParent
}

// CountableAxis reports whether positional ranks on the axis are
// context-independent whole-document information: each candidate has a
// unique parent, so its rank among the parent's test-passing children
// (or attributes) is a function of the node alone.
func CountableAxis(a ast.Axis) bool {
	return a == ast.AxisChild || a == ast.AxisAttribute
}

// Fill computes the whole-document positional condition set for a
// countable-axis step: out gains every node whose proximity rank among
// its parent's children (or owner's attributes) passing test — and
// base, when non-zero; the conjunction of the step's earlier
// predicates — satisfies cmp. The result is only meaningful on nodes
// passing test∧base themselves; use sites intersect with the step's
// frontier, which already is. One pass over the document: O(|D|).
func Fill(doc *xmltree.Document, axis ast.Axis, test, base nodeset.Set, cmp Cmp, out nodeset.Set) {
	needLast := cmp.UsesLast()
	pass := func(n *xmltree.Node) bool {
		return test.HasOrd(int(n.Ord)) && (base.Words == nil || base.HasOrd(int(n.Ord)))
	}
	for _, p := range doc.Nodes {
		sibs := p.Children
		if axis == ast.AxisAttribute {
			sibs = p.Attrs
		}
		if len(sibs) == 0 {
			continue
		}
		total := 0
		if needLast {
			for _, c := range sibs {
				if pass(c) {
					total++
				}
			}
		}
		rank := 0
		for _, c := range sibs {
			if !pass(c) {
				continue
			}
			rank++
			if cmp.Eval(rank, total) {
				out.AddOrd(int(c.Ord))
			}
		}
	}
}

// checkKey keys the Check walk's visited map: positional validity
// depends on the owning step's axis and on predicate-root position, so
// shared subexpressions re-check per distinct context.
type checkKey struct {
	expr ast.Expr
	axis ast.Axis
	mode uint8 // 0 top, 1 boolean context in a predicate, 2 predicate root
}

// noAxis marks "not inside a predicate" in the Check walk. It must be
// distinct from every real axis — ast.AxisSelf is the zero value.
const noAxis = ast.Axis(^uint8(0))

// Check verifies that expr is in the counting fragment: Core XPath
// (Definition 2.5 with the Remark 3.1 label test and the explicit
// boolean()/true()/false() conversions) extended with the positional
// shapes of this package on countable or singleton axes, plus
// constant-foldable numeric leaves in boolean context. Everything
// passing Check the extended corelinear evaluator evaluates and the
// bytecode VM compiles; the VM additionally compiles path-versus-literal
// comparisons and top-level count()/sum(), which Check rejects.
func Check(expr ast.Expr) error {
	return check(expr, noAxis, 0, make(map[checkKey]bool))
}

func check(expr ast.Expr, axis ast.Axis, mode uint8, seen map[checkKey]bool) error {
	k := checkKey{expr, axis, mode}
	if seen[k] {
		return nil
	}
	seen[k] = true
	if mode == 2 {
		if c, ok := RecognizeRoot(expr); ok {
			return checkCond(c, axis)
		}
		mode = 1
	}
	switch x := expr.(type) {
	case *ast.Path:
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if err := check(p, s.Axis, 2, seen); err != nil {
					return err
				}
			}
		}
		return nil
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpUnion:
			if err := check(x.Left, axis, mode, seen); err != nil {
				return err
			}
			return check(x.Right, axis, mode, seen)
		}
		if c, ok := RecognizeBool(x); ok {
			if mode == 0 && !x.Op.IsRelational() {
				return fmt.Errorf("%w: number-typed %q at top level", ErrNotCounting, x.Op)
			}
			return checkCond(c, axis)
		}
		return fmt.Errorf("%w: operator %q", ErrNotCounting, x.Op)
	case *ast.Call:
		switch x.Name {
		case "not", "boolean":
			return check(x.Args[0], axis, mode, seen)
		case "true", "false":
			return nil
		case "position", "last":
			if mode == 0 {
				return fmt.Errorf("%w: %s() outside a predicate", ErrNotCounting, x.Name)
			}
			return nil // always ≥ 1, constant in boolean context
		default:
			return fmt.Errorf("%w: function %q", ErrNotCounting, x.Name)
		}
	case *ast.LabelTest:
		return nil
	default:
		if _, ok := FoldConst(expr); ok && mode != 0 {
			return nil
		}
		return fmt.Errorf("%w: %T expression", ErrNotCounting, expr)
	}
}

// checkCond validates a recognized positional condition against its
// owning step's axis (constants fold anywhere, including at top level
// through a relational comparison).
func checkCond(c Cond, axis ast.Axis) error {
	if c.IsConst {
		return nil
	}
	if axis == noAxis {
		return fmt.Errorf("%w: positional comparison outside a predicate", ErrNotCounting)
	}
	if !CountableAxis(axis) && !SingletonAxis(axis) {
		return fmt.Errorf("%w: positional predicate on the %s axis", ErrNotCounting, axis)
	}
	return nil
}
