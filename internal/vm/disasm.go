package vm

import (
	"fmt"
	"strconv"
	"strings"

	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xpath/ast"
)

// The disassembly is a complete, parseable description of a Program:
// header, slot count, the two constant pools (printed explicitly, so
// Assemble reproduces pool indices bit-for-bit), then one line per
// instruction. Operand fields equal to their zero value are omitted;
// anything after ';' on an instruction line is a comment. Example:
//
//	vm bytecode v1
//	slots 1
//	test 0 elem name "a"
//	test 1 elem name "b"
//	  0: initroot
//	  1: step axis=descendant-or-self test=0 b=1	; descendant-or-self::a
//	  2: enter
//	  3: begin
//	  4: invstep test=1	; child::b
//	  5: exit
//	  6: store
//	  7: stepcond axis=child test=0 a=0 b=1	; child::a[...]
//	  8: retset

// kindNames maps ast.TestKind to its disassembly spelling.
var kindNames = map[ast.TestKind]string{
	ast.TestName:    "name",
	ast.TestStar:    "star",
	ast.TestText:    "text",
	ast.TestComment: "comment",
	ast.TestPI:      "pi",
	ast.TestNode:    "node",
}

var kindByName = func() map[string]ast.TestKind {
	m := make(map[string]ast.TestKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for o, n := range opNames {
		if n != "" {
			m[n] = Op(o)
		}
	}
	return m
}()

// usesAxis reports whether the opcode's Axis field is meaningful (for
// the disassembly comment; field printing is value-driven either way).
func (o Op) usesAxis() bool {
	switch o {
	case OpStep, OpStepCond, OpAxisF, OpInvStep, OpInvStepCond, OpInvAxis,
		OpStepPos, OpStepPosBase, OpCondPos, OpCondCmp:
		return true
	}
	return false
}

// relopByName maps the relational operators' source spellings (which
// are single whitespace-free tokens) back to ast.BinOp for the poscond
// pool directive.
var relopByName = map[string]ast.BinOp{
	"=": ast.OpEq, "!=": ast.OpNeq,
	"<": ast.OpLt, "<=": ast.OpLe,
	">": ast.OpGt, ">=": ast.OpGe,
}

// Disassemble renders the program in the round-trippable assembly form:
// Assemble(p.Disassemble()) reproduces p exactly, pool layout included.
func (p *Program) Disassemble() string {
	var b strings.Builder
	b.WriteString("vm bytecode v1\n")
	fmt.Fprintf(&b, "slots %d\n", p.NumSlots)
	if p.PreCharge != 0 {
		fmt.Fprintf(&b, "precharge %d\n", p.PreCharge)
	}
	for i, e := range p.Tests {
		principal := "elem"
		if e.Attr {
			principal = "attr"
		}
		fmt.Fprintf(&b, "test %d %s %s %s\n", i, principal, kindNames[e.Test.Kind], strconv.Quote(e.Test.Name))
	}
	for i, l := range p.Labels {
		fmt.Fprintf(&b, "label %d %s\n", i, strconv.Quote(l))
	}
	for i, c := range p.PosConds {
		fmt.Fprintf(&b, "poscond %d %s %s %s\n", i, c.Left, c.Op, c.Right)
	}
	for i, c := range p.Cmps {
		fmt.Fprintf(&b, "cmp %d %s %s\n", i, c.Op, literalText(c))
	}
	for i, in := range p.Code {
		fmt.Fprintf(&b, "%3d: %s", i, in.Op)
		if in.Axis != 0 {
			fmt.Fprintf(&b, " axis=%s", in.Axis)
		}
		if in.Test != 0 {
			fmt.Fprintf(&b, " test=%d", in.Test)
		}
		if in.A != 0 {
			fmt.Fprintf(&b, " a=%d", in.A)
		}
		if in.B != 0 {
			fmt.Fprintf(&b, " b=%d", in.B)
		}
		if in.Dst != 0 {
			fmt.Fprintf(&b, " dst=%d", in.Dst)
		}
		if in.Op.usesAxis() && int(in.Test) < len(p.Tests) {
			// The source-form comment: axis::test as the query spelled it.
			e := p.Tests[in.Test]
			fmt.Fprintf(&b, "\t; %s::%s", in.Axis, e.Test)
			// The positional opcodes append their comparison.
			pi := -1
			switch in.Op {
			case OpStepPos, OpStepPosBase:
				pi = int(in.A)
			case OpCondPos:
				pi = int(in.B)
			}
			if pi >= 0 && pi < len(p.PosConds) {
				c := p.PosConds[pi]
				fmt.Fprintf(&b, "[%s %s %s]", c.Left, c.Op, c.Right)
			}
			if in.Op == OpCondCmp && int(in.A) < len(p.Cmps) {
				c := p.Cmps[in.A]
				fmt.Fprintf(&b, "[. %s %s]", c.Op, literalText(c))
			}
		} else if in.Op == OpCondLabel && int(in.Test) < len(p.Labels) {
			fmt.Fprintf(&b, "\t; T(%s)", p.Labels[in.Test])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Assemble parses the Disassemble format back into a Program. It is the
// exact inverse: pool entries and instruction operands are taken
// verbatim, so a parsed program is identical (reflect.DeepEqual) to the
// one that was disassembled.
func Assemble(src string) (*Program, error) {
	p := &Program{}
	sawHeader := false
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if !sawHeader {
			if line != "vm bytecode v1" {
				return nil, fmt.Errorf("vm: line %d: missing %q header", lineNo, "vm bytecode v1")
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "slots":
			n, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			p.NumSlots = n
		case "test":
			if len(fields) < 5 {
				return nil, fmt.Errorf("vm: line %d: want %q", lineNo, "test <idx> <elem|attr> <kind> <name>")
			}
			i, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if i != len(p.Tests) {
				return nil, fmt.Errorf("vm: line %d: test index %d out of order", lineNo, i)
			}
			var e TestEntry
			switch fields[2] {
			case "elem":
			case "attr":
				e.Attr = true
			default:
				return nil, fmt.Errorf("vm: line %d: unknown principal %q", lineNo, fields[2])
			}
			kind, ok := kindByName[fields[3]]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: unknown test kind %q", lineNo, fields[3])
			}
			e.Test.Kind = kind
			// The quoted name is the remainder after the first four fields.
			rest := afterFields(line, 4)
			name, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: bad test name %s: %v", lineNo, rest, err)
			}
			e.Test.Name = name
			p.Tests = append(p.Tests, e)
		case "precharge":
			n, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			p.PreCharge = n
		case "poscond":
			if len(fields) != 5 {
				return nil, fmt.Errorf("vm: line %d: want %q", lineNo, "poscond <idx> <left> <op> <right>")
			}
			i, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if i != len(p.PosConds) {
				return nil, fmt.Errorf("vm: line %d: poscond index %d out of order", lineNo, i)
			}
			var c counting.Cmp
			if c.Left, err = counting.ParseOperand(fields[2]); err != nil {
				return nil, fmt.Errorf("vm: line %d: %v", lineNo, err)
			}
			op, ok := relopByName[fields[3]]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: unknown relational operator %q", lineNo, fields[3])
			}
			c.Op = op
			if c.Right, err = counting.ParseOperand(fields[4]); err != nil {
				return nil, fmt.Errorf("vm: line %d: %v", lineNo, err)
			}
			p.PosConds = append(p.PosConds, c)
		case "cmp":
			if len(fields) < 4 {
				return nil, fmt.Errorf("vm: line %d: want %q", lineNo, "cmp <idx> <op> <literal>")
			}
			i, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if i != len(p.Cmps) {
				return nil, fmt.Errorf("vm: line %d: cmp index %d out of order", lineNo, i)
			}
			op, ok := relopByName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: unknown relational operator %q", lineNo, fields[2])
			}
			c := value.LiteralCmp{Op: op}
			// The literal is the remainder after the operator: a quoted
			// string, or a bare number.
			rest := afterFields(line, 3)
			if strings.HasPrefix(rest, `"`) {
				if c.Str, err = strconv.Unquote(rest); err != nil {
					return nil, fmt.Errorf("vm: line %d: bad string literal %s: %v", lineNo, rest, err)
				}
			} else {
				c.IsNum = true
				if c.Num, err = strconv.ParseFloat(rest, 64); err != nil {
					return nil, fmt.Errorf("vm: line %d: bad number literal %q: %v", lineNo, rest, err)
				}
			}
			p.Cmps = append(p.Cmps, c)
		case "label":
			if len(fields) < 3 {
				return nil, fmt.Errorf("vm: line %d: want %q", lineNo, "label <idx> <name>")
			}
			i, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if i != len(p.Labels) {
				return nil, fmt.Errorf("vm: line %d: label index %d out of order", lineNo, i)
			}
			rest := afterFields(line, 2)
			l, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: bad label %s: %v", lineNo, rest, err)
			}
			p.Labels = append(p.Labels, l)
		default:
			// An instruction line: "<idx>: <op> [field=value]...".
			idxStr, ok := strings.CutSuffix(fields[0], ":")
			if !ok {
				return nil, fmt.Errorf("vm: line %d: unrecognized directive %q", lineNo, fields[0])
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx != len(p.Code) {
				return nil, fmt.Errorf("vm: line %d: instruction index %q out of order", lineNo, idxStr)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("vm: line %d: missing opcode", lineNo)
			}
			op, ok := opByName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: unknown opcode %q", lineNo, fields[1])
			}
			in := Instr{Op: op}
			for _, f := range fields[2:] {
				key, val, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fmt.Errorf("vm: line %d: malformed operand %q", lineNo, f)
				}
				if key == "axis" {
					a, ok := ast.AxisByName[val]
					if !ok {
						return nil, fmt.Errorf("vm: line %d: unknown axis %q", lineNo, val)
					}
					in.Axis = a
					continue
				}
				n, err := strconv.ParseUint(val, 10, 16)
				if err != nil {
					return nil, fmt.Errorf("vm: line %d: bad operand %q: %v", lineNo, f, err)
				}
				switch key {
				case "test":
					in.Test = uint16(n)
				case "a":
					in.A = uint16(n)
				case "b":
					in.B = uint16(n)
				case "dst":
					in.Dst = uint16(n)
				default:
					return nil, fmt.Errorf("vm: line %d: unknown operand %q", lineNo, key)
				}
			}
			p.Code = append(p.Code, in)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("vm: empty assembly source")
	}
	return p, nil
}

// stripComment cuts a line at its first ';' outside a quoted string, so
// pool literals may contain the comment character.
func stripComment(line string) string {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case c == ';' && !quoted:
			return line[:i]
		}
	}
	return line
}

// afterFields returns line with its first n whitespace-separated fields
// removed: the remainder of a directive whose last operand is a quoted
// string that may itself contain whitespace.
func afterFields(line string, n int) string {
	for i := 0; i < n; i++ {
		line = strings.TrimLeft(line, " \t")
		if j := strings.IndexAny(line, " \t"); j >= 0 {
			line = line[j:]
		} else {
			line = ""
		}
	}
	return strings.TrimSpace(line)
}

// literalText spells a comparison literal for the cmp pool directive:
// a Go-quoted string, or the shortest number that parses back exactly.
func literalText(c value.LiteralCmp) string {
	if c.IsNum {
		return strconv.FormatFloat(c.Num, 'g', -1, 64)
	}
	return strconv.Quote(c.Str)
}

func atoiField(fields []string, i, lineNo int) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("vm: line %d: missing numeric field", lineNo)
	}
	n, err := strconv.Atoi(fields[i])
	if err != nil {
		return 0, fmt.Errorf("vm: line %d: bad number %q: %v", lineNo, fields[i], err)
	}
	return n, nil
}
