// Package ast defines the abstract syntax of XPath 1.0 queries as used
// throughout the engine. The representation mirrors the query trees of the
// paper: location paths are sequences of steps, each step an axis, a node
// test and a (possibly empty) sequence of predicates; all other expressions
// are function calls, literals, numbers and binary/unary operator nodes.
//
// One extension beyond XPath 1.0 is supported: the label test T(l) of
// Remark 3.1, which checks membership of l in a node's extra label set.
// Lower (in package reduction) rewrites T(l) to the paper's own encoding
// child::l for strict Core XPath conformance.
package ast

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Axis enumerates the XPath axes (namespace axis excluded; the paper never
// uses it).
type Axis int

// The thirteen axes of XPath 1.0 minus 'namespace'.
const (
	AxisSelf Axis = iota
	AxisChild
	AxisParent
	AxisDescendant
	AxisDescendantOrSelf
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisFollowingSibling
	AxisPreceding
	AxisPrecedingSibling
	AxisAttribute
)

var axisNames = [...]string{
	AxisSelf:             "self",
	AxisChild:            "child",
	AxisParent:           "parent",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisFollowing:        "following",
	AxisFollowingSibling: "following-sibling",
	AxisPreceding:        "preceding",
	AxisPrecedingSibling: "preceding-sibling",
	AxisAttribute:        "attribute",
}

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if int(a) < len(axisNames) {
		return axisNames[a]
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// AxisByName maps XPath axis spellings to Axis values.
var AxisByName = func() map[string]Axis {
	m := make(map[string]Axis, len(axisNames))
	for a, n := range axisNames {
		m[n] = Axis(a)
	}
	return m
}()

// IsReverse reports whether the axis enumerates nodes in reverse document
// order (so that proximity position 1 is the nearest node).
func (a Axis) IsReverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling:
		return true
	default:
		return false
	}
}

// TestKind enumerates node test kinds.
type TestKind int

// Node test kinds: a tag name, the '*' wildcard, and the node-type tests.
const (
	TestName TestKind = iota
	TestStar
	TestText
	TestComment
	TestPI
	TestNode
)

// NodeTest is the node test of a location step.
type NodeTest struct {
	Kind TestKind
	// Name is the tag for TestName and the optional target for TestPI.
	Name string
}

// String returns the XPath spelling of the node test.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestStar:
		return "*"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return "processing-instruction(" + quote(t.Name, '"') + ")"
		}
		return "processing-instruction()"
	case TestNode:
		return "node()"
	default:
		return fmt.Sprintf("test(%d)", int(t.Kind))
	}
}

// BinOp enumerates binary operators, including '|' (union).
type BinOp int

// Binary operators in increasing binding strength groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpUnion
)

var binOpNames = [...]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div",
	OpMod: "mod", OpUnion: "|",
}

// String returns the XPath spelling of the operator.
func (o BinOp) String() string {
	if int(o) < len(binOpNames) {
		return binOpNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsRelational reports whether the operator is one of = != < <= > >=.
func (o BinOp) IsRelational() bool { return o >= OpEq && o <= OpGe }

// IsArithmetic reports whether the operator is one of + - * div mod.
func (o BinOp) IsArithmetic() bool { return o >= OpAdd && o <= OpMod }

// Expr is an XPath expression node. Implementations: *Path, *Step (inside
// paths only), *Binary, *Unary, *Call, *Number, *Literal, *LabelTest.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Step is one location step: axis::test[pred1][pred2]...
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

// String renders the step in canonical unabbreviated form.
func (s *Step) String() string {
	var b strings.Builder
	b.WriteString(s.Axis.String())
	b.WriteString("::")
	b.WriteString(s.Test.String())
	for _, p := range s.Preds {
		b.WriteString("[")
		b.WriteString(p.String())
		b.WriteString("]")
	}
	return b.String()
}

// Path is a location path: an optional leading '/' and a sequence of steps.
type Path struct {
	Absolute bool
	Steps    []*Step
}

func (*Path) isExpr() {}

// String renders the path in canonical unabbreviated form.
func (p *Path) String() string {
	var parts []string
	for _, s := range p.Steps {
		parts = append(parts, s.String())
	}
	body := strings.Join(parts, "/")
	if p.Absolute {
		return "/" + body
	}
	return body
}

// Binary is a binary operator application, including union.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

func (*Binary) isExpr() {}

// String renders the expression fully parenthesized except around paths.
func (b *Binary) String() string {
	return fmt.Sprintf("%s %s %s", paren(b.Left), b.Op, paren(b.Right))
}

func paren(e Expr) string {
	switch e.(type) {
	case *Binary:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

// Unary is unary minus.
type Unary struct {
	Operand Expr
}

func (*Unary) isExpr() {}

// String renders the negated operand.
func (u *Unary) String() string { return "-" + paren(u.Operand) }

// Call is a function call such as not(e), position(), count(p).
type Call struct {
	Name string
	Args []Expr
}

func (*Call) isExpr() {}

// String renders the call.
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ", "))
}

// Number is a numeric constant.
type Number struct {
	Val float64
}

func (*Number) isExpr() {}

// String renders the constant in XPath number syntax: plain decimal
// notation, never scientific ("%g" would print 1000000 as "1e+06", which
// does not lex as an XPath number). NaN and infinities cannot appear in
// parsed queries but render readably for synthetic ASTs.
func (n *Number) String() string {
	f := n.Val
	switch {
	case math.IsNaN(f):
		return "(0 div 0)"
	case math.IsInf(f, 1):
		return "(1 div 0)"
	case math.IsInf(f, -1):
		return "(-1 div 0)"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
}

// Literal is a string constant.
type Literal struct {
	Val string
}

func (*Literal) isExpr() {}

// String renders the literal single-quoted, or double-quoted when the
// value holds a single quote.
func (l *Literal) String() string { return quote(l.Val, '\'') }

// quote renders s as an XPath 1.0 literal, preferring the quote
// character q. Literals have no escapes, so a value holding q takes the
// other quote character; a parsed literal never holds both.
func quote(s string, q byte) string {
	if strings.IndexByte(s, q) >= 0 {
		if q == '"' {
			q = '\''
		} else {
			q = '"'
		}
	}
	return string(q) + s + string(q)
}

// LabelTest is the T(l) condition extension of Remark 3.1: true iff the
// context node carries the extra label l.
type LabelTest struct {
	Label string
}

func (*LabelTest) isExpr() {}

// String renders the label test in the paper's notation.
func (t *LabelTest) String() string { return fmt.Sprintf("T(%s)", t.Label) }
