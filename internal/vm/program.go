// Package vm compiles Core XPath plans to flat bytecode and executes
// them on a register machine over the word-packed node sets of package
// nodeset. It is the sixth engine of the facade (EngineVM) and computes
// exactly what the corelinear evaluator computes — the forward
// frontier/backward condition-set algorithm of Proposition 2.7 — but
// with the per-evaluation interpretation overhead compiled away. The
// same algebra also carries two shapes corelinear leaves to cvt: a
// comparison of a path with a literal is one more whole-document
// condition set on the path's last step (OpCondCmp), and top-level
// count()/sum() reduce the materialized frontier (OpRetCount,
// OpRetSum).
//
// The compiled form:
//
//   - the fragment check, the condition memo map and the node-test
//     resolution all happen once at compile time (conditions become
//     integer slots, node tests become constant-pool indices);
//   - the hottest step shapes are superinstructions: OpStep fuses
//     axis+node-test, OpStepCond and OpInvStepCond additionally fuse the
//     first predicate's condition filter, so one dispatch covers what
//     the tree interpreter does in three visits;
//   - the dispatch itself is a tight switch loop over a flat []Instr.
//
// Execution charges the operation counter and the resource guard in the
// same |D|-sized units and at the same logical points as corelinear
// (one charge per forward step, per backward step and per condition
// node), so op budgets are denominated identically across the engines.
// Node-set results are materialized from bitsets in document order,
// which keeps the VM byte-compatible with the other engines' answers.
package vm

import (
	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xpath/ast"
)

// Op is a bytecode opcode.
type Op uint8

// The instruction set. Register model: F is the forward frontier (the
// path being materialized), acc is the backward-pass accumulator of the
// condition path currently being computed, and slots[i] are the
// whole-document condition sets (one per distinct condition
// subexpression, computed once per evaluation).
const (
	// OpInitCtx sets F to the singleton {context node}.
	OpInitCtx Op = iota
	// OpInitRoot sets F to the singleton {document root}.
	OpInitRoot
	// OpStep is the fused forward superinstruction:
	// F ← axis(F) ∩ tests[Test]. Charges one step.
	OpStep
	// OpStepCond additionally fuses the first predicate:
	// F ← axis(F) ∩ tests[Test] ∩ slots[A]. Charges one step.
	OpStepCond
	// OpAxisF is the unfused axis application F ← axis(F); emitted only
	// with fusion disabled. Charges one step.
	OpAxisF
	// OpTestF is the unfused node-test intersection F ∩= tests[Test].
	OpTestF
	// OpFilterF intersects a predicate's condition set: F ∩= slots[A].
	OpFilterF
	// OpSaveF materializes F into slots[Dst] (union evaluation).
	OpSaveF
	// OpOrF unions a saved frontier back in: F ∪= slots[A].
	OpOrF
	// OpEnter/OpExit bracket a condition subprogram (or a union side)
	// for the guard's recursion-depth accounting, mirroring the tree
	// evaluator's nesting.
	OpEnter
	OpExit
	// OpBegin starts a backward condition path: acc ← Full. Carries the
	// condition-node charge of the path expression.
	OpBegin
	// OpInvStep is the fused backward superinstruction:
	// acc ← axis⁻¹(acc ∩ tests[Test]). Charges one step.
	OpInvStep
	// OpInvStepCond additionally fuses the step's only predicate:
	// acc ← axis⁻¹(acc ∩ tests[Test] ∩ slots[A]). Charges one step.
	OpInvStepCond
	// OpTestAnd is the unfused backward step opening: acc ∩= tests[Test].
	// Charges one step (the fused forms carry it instead).
	OpTestAnd
	// OpAndAcc intersects a predicate set into the accumulator:
	// acc ∩= slots[A].
	OpAndAcc
	// OpInvAxis is the unfused inverse axis application: acc ← axis⁻¹(acc).
	OpInvAxis
	// OpAnchorRoot resolves an absolute condition path: acc ← Full when
	// the root is in acc, Empty otherwise.
	OpAnchorRoot
	// OpStore finishes a condition path: slots[Dst] ← acc.
	OpStore
	// OpCondTrue/OpCondFalse are the constant conditions true()/false():
	// slots[Dst] ← Full / Empty. Charge one condition node.
	OpCondTrue
	OpCondFalse
	// OpCondLabel is the Remark 3.1 label test: slots[Dst] ← the set of
	// nodes carrying labels[Test]. Charges one condition node.
	OpCondLabel
	// OpAnd/OpOr/OpNot are the boolean connectives on whole-document
	// sets: slots[Dst] ← slots[A] ∩/∪ slots[B], ¬slots[A]. Charge one
	// condition node each.
	OpAnd
	OpOr
	OpNot
	// OpCopy aliases slots[Dst] ← slots[A] (the explicit boolean(...)
	// conversion, which the tree evaluator charges as its own node).
	OpCopy
	// OpRetSet returns F materialized as a document-ordered node-set.
	OpRetSet
	// OpRetBool returns slots[A] ∋ context node as a boolean.
	OpRetBool
	// OpCondPos fills a positional condition slot (counting fragment):
	// slots[Dst] ← the nodes whose rank among their parent's
	// tests[Test]-passing children (∩ slots[A] when A ≠ NoBaseSlot; the
	// conjunction of the step's earlier predicates) satisfies
	// PosConds[B]. Axis is child or attribute. Charges one condition
	// node; one O(|D|) counting pass.
	OpCondPos
	// OpStepPos is the fused positional superinstruction: a forward
	// step whose only positional predicate comes first,
	// F ← { c ∈ axis(F) ∩ tests[Test] | PosConds[A](rank of c) }.
	// On a sparse frontier ranks fall out of the ordered selection —
	// same-parent children are contiguous runs; on a dense frontier the
	// machine walks the frontier's child (or attribute) lists directly.
	// Either way the cost is bounded by the frontier's fan-out, never
	// the whole-document counting pass the unfused form pays. B=1 marks
	// end-of-step (see OpStep). Charges one step plus one condition
	// node, matching the tree evaluator's two visits.
	OpStepPos
	// OpAndSlot assembles a positional base set:
	// slots[Dst] ← slots[A] ∩ slots[B]. Uncharged — corelinear builds
	// the same conjunction outside its charge points.
	OpAndSlot
	// OpStepPosBase is OpStepPos for a positional predicate with
	// earlier predicates on its step: slots[Dst] holds their
	// conjunction, and ranks count only siblings in it —
	// F ← { c ∈ axis(F) ∩ tests[Test] ∩ slots[Dst] |
	//       PosConds[A](rank of c among tests[Test] ∩ slots[Dst]) }.
	// The base probe subsumes the earlier predicates' filters, so no
	// residual OpFilterF is emitted for them. Charges like OpStepPos.
	OpStepPosBase
	// OpCondCmp fills a literal-comparison condition slot (Proposition
	// 2.7's algebra extended with π op c): slots[Dst] ← the nodes of
	// tests[Test] whose string-value satisfies Cmps[A]. The backward
	// pass ANDs the slot into π's last step, so E[π op c] is the set of
	// nodes from which π reaches a satisfying node. Axis is π's last
	// step's, for the disassembly comment. Charges one condition node.
	OpCondCmp
	// OpRetCount returns |F| as a number (top-level count()). Charges
	// one condition node, the function call.
	OpRetCount
	// OpRetSum returns the sum of F's nodes' string-values converted to
	// numbers, accumulated in document order so the float result is
	// bit-identical to the tree engines' (top-level sum()). Charges one
	// condition node, the function call.
	OpRetSum
)

var opNames = [...]string{
	OpInitCtx: "initctx", OpInitRoot: "initroot",
	OpStep: "step", OpStepCond: "stepcond",
	OpAxisF: "axisf", OpTestF: "testf", OpFilterF: "filterf",
	OpSaveF: "savef", OpOrF: "orf",
	OpEnter: "enter", OpExit: "exit",
	OpBegin: "begin", OpInvStep: "invstep", OpInvStepCond: "invstepcond",
	OpTestAnd: "testand", OpAndAcc: "andacc", OpInvAxis: "invaxis",
	OpAnchorRoot: "anchorroot", OpStore: "store",
	OpCondTrue: "condtrue", OpCondFalse: "condfalse", OpCondLabel: "condlabel",
	OpAnd: "and", OpOr: "or", OpNot: "not", OpCopy: "copy",
	OpRetSet: "retset", OpRetBool: "retbool",
	OpCondPos: "condpos", OpStepPos: "steppos", OpAndSlot: "andslot",
	OpStepPosBase: "stepposbase", OpCondCmp: "condcmp",
	OpRetCount: "retcount", OpRetSum: "retsum",
}

// String returns the opcode's assembly mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// charges reports whether executing the opcode charges one |D|-sized
// operation unit (a forward step, a backward step, or a condition
// node), mirroring the corelinear evaluator's charge points.
func (o Op) charges() bool {
	switch o {
	case OpStep, OpStepCond, OpAxisF, OpBegin, OpInvStep, OpInvStepCond,
		OpTestAnd, OpCondTrue, OpCondFalse, OpCondLabel,
		OpAnd, OpOr, OpNot, OpCopy, OpCondPos, OpCondCmp, OpRetCount, OpRetSum:
		return true
	}
	return false
}

// NoBaseSlot is the OpCondPos A-operand meaning "no base set" (the
// positional predicate has no earlier predicates on its step). The
// slot allocator never hands out this value.
const NoBaseSlot = ^uint16(0)

// Instr is one fixed-size bytecode instruction. Unused operand fields
// are zero; which fields an opcode uses is listed in the Op docs and
// encoded in the disassembler.
type Instr struct {
	// Op is the opcode.
	Op Op
	// Axis is the step axis for the axis-applying opcodes.
	Axis ast.Axis
	// Test indexes the Tests pool (or the Labels pool for OpCondLabel).
	Test uint16
	// A and B are condition-slot operands, except where an opcode's doc
	// says otherwise: A indexes the PosConds pool for
	// OpStepPos/OpStepPosBase and the Cmps pool for OpCondCmp, B the
	// PosConds pool for OpCondPos or flags a step's end.
	A, B uint16
	// Dst is the condition-slot destination.
	Dst uint16
}

// TestEntry is one constant-pool node test. Attr records whether the
// owning step's axis was the attribute axis — the principal node type is
// all the membership set depends on, so entries are shared across axes.
type TestEntry struct {
	// Test is the node test.
	Test ast.NodeTest
	// Attr selects the attribute principal node type.
	Attr bool
}

// Program is a compiled Core XPath query: a flat instruction stream
// plus its constant pools. A Program is immutable after Compile and
// safe for concurrent Run calls (EvalBatch workers share one Program
// and get per-goroutine machine state from a pool).
type Program struct {
	// Code is the instruction stream, executed front to back; there are
	// no jumps.
	Code []Instr
	// Tests is the node-test constant pool.
	Tests []TestEntry
	// Labels is the Remark 3.1 label constant pool.
	Labels []string
	// PosConds is the positional-comparison constant pool (counting
	// fragment), indexed by OpCondPos.B and OpStepPos/OpStepPosBase.A.
	PosConds []counting.Cmp
	// Cmps is the literal-comparison constant pool, indexed by
	// OpCondCmp.A.
	Cmps []value.LiteralCmp
	// NumSlots is the number of condition-set registers the machine
	// needs (one per distinct condition subexpression plus union
	// temporaries).
	NumSlots int
	// PreCharge is the number of |D|-sized charge units the peephole
	// pass folded out of the instruction stream (constant conditions,
	// dead condition subprograms). The machine bills them up front so
	// MaxOps budgets keep exact parity with the tree evaluator, which
	// still evaluates those condition nodes.
	PreCharge int
}
