package value

import (
	"fmt"
	"math"

	"xpathcomplexity/internal/xpath/ast"
)

// Compare applies an XPath 1.0 comparison (=, !=, <, <=, >, >=) to two
// values, implementing the existential node-set semantics of §3.4:
//
//   - node-set vs node-set: true iff some pair of nodes satisfies the
//     comparison on their string-values (numbers for relational operators);
//   - node-set vs scalar: true iff some node satisfies it;
//   - boolean involved (no node-set): compare as booleans (=/!= only; the
//     relational operators always convert to numbers);
//   - number involved: compare as numbers;
//   - otherwise: compare as strings (=/!=) or numbers (relational).
func Compare(op ast.BinOp, a, b Value) bool {
	if !op.IsRelational() {
		panic(fmt.Sprintf("value: Compare called with non-relational operator %v", op))
	}
	an, aIsSet := a.(NodeSet)
	bn, bIsSet := b.(NodeSet)
	// §3.4: a node-set compared to a boolean is converted with boolean()
	// first — this case is NOT existential.
	if _, ok := a.(Boolean); ok && bIsSet {
		return compareScalarPair(op, a, Boolean(ToBoolean(b)))
	}
	if _, ok := b.(Boolean); ok && aIsSet {
		return compareScalarPair(op, Boolean(ToBoolean(a)), b)
	}
	switch {
	case aIsSet && bIsSet:
		for _, x := range an {
			sx := x.StringValue()
			for _, y := range bn {
				if compareStrings(op, sx, y.StringValue()) {
					return true
				}
			}
		}
		return false
	case aIsSet:
		return NewLiteralCmp(op, b).matchAny(an)
	case bIsSet:
		return NewLiteralCmp(MirrorOp(op), a).matchAny(bn)
	default:
		return compareScalarPair(op, a, b)
	}
}

// LiteralCmp is the node-set-vs-literal comparison of §3.4 applied to
// one node at a time: a node-set op lit is true iff some node's
// string-value s satisfies s op lit. Against a number literal, or under
// a relational operator, both sides compare as numbers (a NaN side makes
// every operator but != false); against a string literal, = and !=
// compare strings. Every engine decides node-vs-literal comparisons
// through this type — Compare's existential loop and the bytecode VM's
// whole-document condition fill — so the semantics cannot drift.
//
// LiteralCmp is small and comparable, so the VM pools it like any
// other compile-time constant.
type LiteralCmp struct {
	// Op is the relational operator, with the node on its left; a
	// literal on the left of the source comparison is stated with
	// MirrorOp.
	Op ast.BinOp
	// IsNum selects a number literal, Num; otherwise the literal is the
	// string Str.
	IsNum bool
	Num   float64
	Str   string
}

// NewLiteralCmp states "node op lit" for a String or Number literal; it
// panics on any other operand kind or a non-relational operator.
func NewLiteralCmp(op ast.BinOp, lit Value) LiteralCmp {
	if !op.IsRelational() {
		panic(fmt.Sprintf("value: NewLiteralCmp called with non-relational operator %v", op))
	}
	switch l := lit.(type) {
	case Number:
		return LiteralCmp{Op: op, IsNum: true, Num: float64(l)}
	case String:
		return LiteralCmp{Op: op, Str: string(l)}
	default:
		panic(fmt.Sprintf("value: NewLiteralCmp called with a %s literal", lit.Kind()))
	}
}

// Match reports whether a node with string-value s satisfies the
// comparison.
func (c LiteralCmp) Match(s string) bool {
	if c.IsNum {
		return compareNumbers(c.Op, ParseNumber(s), c.Num)
	}
	return compareStrings(c.Op, s, c.Str)
}

// matchAny is the existential form: whether some node of ns matches.
func (c LiteralCmp) matchAny(ns NodeSet) bool {
	for _, n := range ns {
		if c.Match(n.StringValue()) {
			return true
		}
	}
	return false
}

// MirrorOp returns the operator that states "a op b" as "b op' a": the
// order operators flip, = and != are symmetric.
func MirrorOp(op ast.BinOp) ast.BinOp {
	switch op {
	case ast.OpLt:
		return ast.OpGt
	case ast.OpLe:
		return ast.OpGe
	case ast.OpGt:
		return ast.OpLt
	case ast.OpGe:
		return ast.OpLe
	}
	return op
}

func compareScalarPair(op ast.BinOp, a, b Value) bool {
	if op == ast.OpEq || op == ast.OpNeq {
		_, aB := a.(Boolean)
		_, bB := b.(Boolean)
		if aB || bB {
			r := ToBoolean(a) == ToBoolean(b)
			if op == ast.OpNeq {
				return !r
			}
			return r
		}
		_, aN := a.(Number)
		_, bN := b.(Number)
		if aN || bN {
			return compareNumbers(op, ToNumber(a), ToNumber(b))
		}
		return compareStrings(op, ToString(a), ToString(b))
	}
	return compareNumbers(op, ToNumber(a), ToNumber(b))
}

func compareStrings(op ast.BinOp, a, b string) bool {
	switch op {
	case ast.OpEq:
		return a == b
	case ast.OpNeq:
		return a != b
	default:
		return compareNumbers(op, ParseNumber(a), ParseNumber(b))
	}
}

func compareNumbers(op ast.BinOp, a, b float64) bool {
	switch op {
	case ast.OpEq:
		return a == b
	case ast.OpNeq:
		// NaN != x is true in XPath, matching IEEE.
		return a != b
	case ast.OpLt:
		return a < b
	case ast.OpLe:
		return a <= b
	case ast.OpGt:
		return a > b
	case ast.OpGe:
		return a >= b
	default:
		return false
	}
}

// Arith applies an XPath arithmetic operator to two numbers. 'div' is IEEE
// division (x div 0 yields ±Infinity or NaN); 'mod' follows XPath/Java
// semantics where the result takes the sign of the dividend.
func Arith(op ast.BinOp, a, b float64) float64 {
	switch op {
	case ast.OpAdd:
		return a + b
	case ast.OpSub:
		return a - b
	case ast.OpMul:
		return a * b
	case ast.OpDiv:
		return a / b
	case ast.OpMod:
		return math.Mod(a, b)
	default:
		panic(fmt.Sprintf("value: Arith called with non-arithmetic operator %v", op))
	}
}

// Equal reports deep equality of two values of the same kind; used by tests
// and the engine-agreement harness.
func Equal(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case NodeSet:
		return x.Equal(b.(NodeSet))
	case Boolean:
		return x == b.(Boolean)
	case Number:
		fa, fb := float64(x), float64(b.(Number))
		if math.IsNaN(fa) && math.IsNaN(fb) {
			return true
		}
		return fa == fb
	case String:
		return x == b.(String)
	default:
		return false
	}
}
