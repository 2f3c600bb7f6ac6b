package ast

import (
	"strings"
	"testing"
)

func TestAxisStrings(t *testing.T) {
	for name, axis := range AxisByName {
		if axis.String() != name {
			t.Errorf("AxisByName[%q].String() = %q", name, axis.String())
		}
	}
	if len(AxisByName) != 12 {
		t.Errorf("expected 12 axes, have %d", len(AxisByName))
	}
}

func TestAxisReverse(t *testing.T) {
	reverse := map[Axis]bool{
		AxisParent: true, AxisAncestor: true, AxisAncestorOrSelf: true,
		AxisPreceding: true, AxisPrecedingSibling: true,
	}
	for name, axis := range AxisByName {
		if got := axis.IsReverse(); got != reverse[axis] {
			t.Errorf("IsReverse(%s) = %v", name, got)
		}
	}
}

func TestNodeTestStrings(t *testing.T) {
	cases := []struct {
		t    NodeTest
		want string
	}{
		{NodeTest{Kind: TestName, Name: "a"}, "a"},
		{NodeTest{Kind: TestStar}, "*"},
		{NodeTest{Kind: TestText}, "text()"},
		{NodeTest{Kind: TestComment}, "comment()"},
		{NodeTest{Kind: TestNode}, "node()"},
		{NodeTest{Kind: TestPI}, "processing-instruction()"},
		{NodeTest{Kind: TestPI, Name: "php"}, `processing-instruction("php")`},
		{NodeTest{Kind: TestPI, Name: `"`}, `processing-instruction('"')`},
	}
	for _, tc := range cases {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("NodeTest%v.String() = %q, want %q", tc.t, got, tc.want)
		}
	}
}

func TestBinOpClasses(t *testing.T) {
	for _, op := range []BinOp{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe} {
		if !op.IsRelational() || op.IsArithmetic() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod} {
		if op.IsRelational() || !op.IsArithmetic() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range []BinOp{OpAnd, OpOr, OpUnion} {
		if op.IsRelational() || op.IsArithmetic() {
			t.Errorf("%v misclassified", op)
		}
	}
}

func TestExprStrings(t *testing.T) {
	path := &Path{Absolute: true, Steps: []*Step{
		{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestStar},
			Preds: []Expr{&LabelTest{Label: "R"}}},
	}}
	if got := path.String(); got != "/descendant-or-self::*[T(R)]" {
		t.Errorf("path string = %q", got)
	}
	bin := &Binary{Op: OpAnd,
		Left:  &Binary{Op: OpOr, Left: &Number{Val: 1}, Right: &Number{Val: 2}},
		Right: &Literal{Val: "x"}}
	if got := bin.String(); got != "(1 or 2) and 'x'" {
		t.Errorf("binary string = %q", got)
	}
	u := &Unary{Operand: &Call{Name: "last"}}
	if got := u.String(); got != "-last()" {
		t.Errorf("unary string = %q", got)
	}
	call := &Call{Name: "concat", Args: []Expr{&Literal{Val: "a"}, &Literal{Val: "it's"}, &Number{Val: 2}}}
	if got := call.String(); got != `concat('a', "it's", 2)` {
		t.Errorf("call string = %q", got)
	}
}

func TestWalkCoversAllNodes(t *testing.T) {
	// Build an expression with every node type and count visits.
	inner := &Path{Steps: []*Step{{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: "b"}}}}
	e := &Binary{Op: OpAnd,
		Left: &Call{Name: "not", Args: []Expr{inner}},
		Right: &Path{Steps: []*Step{{
			Axis: AxisChild, Test: NodeTest{Kind: TestStar},
			Preds: []Expr{&Unary{Operand: &Number{Val: 1}}, &LabelTest{Label: "G"}},
		}}},
	}
	var kinds []string
	Walk(e, func(x Expr) bool {
		kinds = append(kinds, strings.TrimPrefix(strings.Split(strings.TrimPrefix(
			strings.Split(typeName(x), ".")[1], "*"), "{")[0], "ast."))
		return true
	})
	if len(kinds) != 7 { // Binary, Call, Path, Path, Unary, Number, LabelTest
		t.Errorf("walk visited %d nodes: %v", len(kinds), kinds)
	}
}

func typeName(e Expr) string {
	switch e.(type) {
	case *Path:
		return "x.Path"
	case *Binary:
		return "x.Binary"
	case *Unary:
		return "x.Unary"
	case *Call:
		return "x.Call"
	case *Number:
		return "x.Number"
	case *Literal:
		return "x.Literal"
	case *LabelTest:
		return "x.LabelTest"
	default:
		return "x.Unknown"
	}
}

func TestWalkEarlyStop(t *testing.T) {
	e := &Binary{Op: OpAnd, Left: &Number{Val: 1}, Right: &Number{Val: 2}}
	n := 0
	Walk(e, func(Expr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStaticTypeTable(t *testing.T) {
	// Every function in FuncResultTypes yields its declared type.
	for name, want := range FuncResultTypes {
		c := &Call{Name: name}
		if got := StaticType(c); got != want {
			t.Errorf("StaticType(%s()) = %v, want %v", name, got, want)
		}
	}
	if StaticType(&Call{Name: "unknown-fn"}) != TypeString {
		t.Error("unknown functions should default to string")
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeNodeSet: "node-set", TypeBoolean: "boolean",
		TypeNumber: "number", TypeString: "string",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%v.String() = %q", ty, got)
		}
	}
}
