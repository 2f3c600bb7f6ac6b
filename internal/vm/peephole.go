package vm

// The peephole pass. Compile emits a direct, locally-correct lowering;
// this post-pass cleans it up before the Program reaches the PlanCache:
//
//   - constant-condition folding: a forward dataflow walk over the
//     (jump-free, single-pass) instruction stream tracks which condition
//     slots hold the constant Full or Empty set and folds their uses —
//     boolean connectives collapse, fused steps drop always-true
//     filters (OpStepCond → OpStep), always-true residual filters
//     disappear;
//   - step-pair fusion: folding can strand an unfused OpStep + OpFilterF
//     pair (e.g. the second predicate of //a[true()][b]); it re-fuses
//     into the OpStepCond superinstruction;
//   - dead-slot elimination: slots whose value is never read — typically
//     the constant sources stranded by folding — lose their producing
//     instructions, including whole backward condition chains.
//
// Charge parity is the invariant throughout: the tree evaluator still
// visits (and charges) every folded condition node, so every removed
// charging instruction increments Program.PreCharge, which the machine
// bills before dispatch. Replacement rewrites only ever swap a charging
// instruction for another charging instruction. OpEnter/OpExit pairs
// around emptied condition subprograms stay, keeping the guard's
// recursion-depth accounting aligned with the tree evaluator's nesting.

// Lattice values for the constant-condition dataflow.
const (
	latUnknown uint8 = iota
	latFull
	latEmpty
)

// peephole optimizes p in place. With opts.DisableFusion the re-fusion
// rewrite is skipped so the program stays on unfused opcodes.
func peephole(p *Program, opts Options) {
	foldConsts(p)
	if !opts.DisableFusion {
		fuseSteps(p)
	}
	elimDead(p)
	compactSlots(p)
}

// foldConsts runs the forward constant-slot dataflow and rewrites uses
// of known-constant slots. The stream has no jumps and runs front to
// back exactly once, so a single in-order walk is an exact analysis.
func foldConsts(p *Program) {
	val := make([]uint8, p.NumSlots)
	out := p.Code[:0]
	for _, in := range p.Code {
		switch in.Op {
		case OpCondTrue:
			val[in.Dst] = latFull
		case OpCondFalse:
			val[in.Dst] = latEmpty
		case OpCondLabel, OpCondCmp, OpStore, OpSaveF:
			val[in.Dst] = latUnknown
		case OpCondPos:
			if in.A != NoBaseSlot && val[in.A] == latFull {
				in.A = NoBaseSlot
			}
			val[in.Dst] = latUnknown
		case OpStepPosBase:
			if val[in.Dst] == latFull {
				in = Instr{Op: OpStepPos, Axis: in.Axis, Test: in.Test, A: in.A, B: in.B}
			}
		case OpAndSlot:
			a, b := val[in.A], val[in.B]
			switch {
			case a == latEmpty || b == latEmpty:
				val[in.Dst] = latEmpty
			case a == latFull && b == latFull:
				val[in.Dst] = latFull
			default:
				val[in.Dst] = latUnknown
			}
		case OpAnd:
			a, b := val[in.A], val[in.B]
			switch {
			case a == latEmpty || b == latEmpty:
				in = Instr{Op: OpCondFalse, Dst: in.Dst}
				val[in.Dst] = latEmpty
			case a == latFull && b == latFull:
				in = Instr{Op: OpCondTrue, Dst: in.Dst}
				val[in.Dst] = latFull
			case a == latFull:
				in = Instr{Op: OpCopy, Dst: in.Dst, A: in.B}
				val[in.Dst] = latUnknown
			case b == latFull:
				in = Instr{Op: OpCopy, Dst: in.Dst, A: in.A}
				val[in.Dst] = latUnknown
			default:
				val[in.Dst] = latUnknown
			}
		case OpOr:
			a, b := val[in.A], val[in.B]
			switch {
			case a == latFull || b == latFull:
				in = Instr{Op: OpCondTrue, Dst: in.Dst}
				val[in.Dst] = latFull
			case a == latEmpty && b == latEmpty:
				in = Instr{Op: OpCondFalse, Dst: in.Dst}
				val[in.Dst] = latEmpty
			case a == latEmpty:
				in = Instr{Op: OpCopy, Dst: in.Dst, A: in.B}
				val[in.Dst] = latUnknown
			case b == latEmpty:
				in = Instr{Op: OpCopy, Dst: in.Dst, A: in.A}
				val[in.Dst] = latUnknown
			default:
				val[in.Dst] = latUnknown
			}
		case OpNot:
			switch val[in.A] {
			case latFull:
				in = Instr{Op: OpCondFalse, Dst: in.Dst}
				val[in.Dst] = latEmpty
			case latEmpty:
				in = Instr{Op: OpCondTrue, Dst: in.Dst}
				val[in.Dst] = latFull
			default:
				val[in.Dst] = latUnknown
			}
		case OpCopy:
			switch val[in.A] {
			case latFull:
				in = Instr{Op: OpCondTrue, Dst: in.Dst}
				val[in.Dst] = latFull
			case latEmpty:
				in = Instr{Op: OpCondFalse, Dst: in.Dst}
				val[in.Dst] = latEmpty
			default:
				val[in.Dst] = latUnknown
			}
		case OpStepCond:
			if val[in.A] == latFull {
				in = Instr{Op: OpStep, Axis: in.Axis, Test: in.Test, B: in.B}
			}
		case OpInvStepCond:
			if val[in.A] == latFull {
				in = Instr{Op: OpInvStep, Axis: in.Axis, Test: in.Test}
			}
		case OpFilterF:
			if val[in.A] == latFull {
				if in.B != 0 {
					migrateEndFlag(out)
				}
				continue
			}
		case OpAndAcc:
			if val[in.A] == latFull {
				continue
			}
		case OpOrF:
			if val[in.A] == latEmpty {
				continue
			}
		}
		out = append(out, in)
	}
	p.Code = out
}

// migrateEndFlag moves a deleted OpFilterF's end-of-step marker onto
// the nearest earlier instruction of the same step. Unfused step
// openings (OpAxisF/OpTestF) run dense, where the marker is unused, so
// it is dropped there.
func migrateEndFlag(code []Instr) {
	for i := len(code) - 1; i >= 0; i-- {
		switch code[i].Op {
		case OpStep, OpStepCond, OpStepPos, OpStepPosBase, OpFilterF:
			code[i].B = 1
			return
		case OpAxisF, OpTestF:
			return
		}
	}
}

// fuseSteps re-fuses OpStep + OpFilterF pairs stranded by constant
// folding into the OpStepCond superinstruction.
func fuseSteps(p *Program) {
	out := p.Code[:0]
	for _, in := range p.Code {
		if in.Op == OpFilterF && len(out) > 0 {
			prev := &out[len(out)-1]
			if prev.Op == OpStep && prev.B == 0 {
				*prev = Instr{Op: OpStepCond, Axis: prev.Axis, Test: prev.Test, A: in.A, B: in.B}
				continue
			}
		}
		out = append(out, in)
	}
	p.Code = out
}

// elimDead removes producers of condition slots that are never read,
// to a fixpoint (removing a backward chain removes its predicate reads,
// which can strand further producers). Every removed charging
// instruction moves its charge to PreCharge.
func elimDead(p *Program) {
	for {
		read := make([]bool, p.NumSlots)
		for i := range p.Code {
			in := &p.Code[i]
			switch in.Op {
			case OpStepCond, OpInvStepCond, OpFilterF, OpOrF, OpAndAcc, OpNot, OpCopy, OpRetBool:
				read[in.A] = true
			case OpAnd, OpOr, OpAndSlot:
				read[in.A] = true
				read[in.B] = true
			case OpCondPos:
				if in.A != NoBaseSlot {
					read[in.A] = true
				}
			case OpStepPosBase:
				read[in.Dst] = true
			}
		}
		changed := false
		out := p.Code[:0]
		for i := 0; i < len(p.Code); i++ {
			in := p.Code[i]
			switch in.Op {
			case OpCondTrue, OpCondFalse, OpCondLabel, OpCondCmp, OpAnd, OpOr, OpNot,
				OpCopy, OpCondPos, OpAndSlot:
				if !read[in.Dst] {
					if in.Op.charges() {
						p.PreCharge++
					}
					changed = true
					continue
				}
			case OpBegin:
				// A backward chain is contiguous from its OpBegin to its
				// OpStore (nested condition paths are hoisted ahead of it).
				j := i
				for p.Code[j].Op != OpStore {
					j++
				}
				if !read[p.Code[j].Dst] {
					for k := i; k <= j; k++ {
						if p.Code[k].Op.charges() {
							p.PreCharge++
						}
					}
					i = j
					changed = true
					continue
				}
			}
			out = append(out, in)
		}
		p.Code = out
		if !changed {
			return
		}
	}
}

// compactSlots renumbers the surviving condition slots densely and
// shrinks NumSlots, so the machine sizes (and clears) only what the
// optimized program still uses.
func compactSlots(p *Program) {
	live := make([]bool, p.NumSlots)
	for i := range p.Code {
		slotFields(&p.Code[i], func(s *uint16) { live[*s] = true })
	}
	remap := make([]uint16, p.NumSlots)
	n := uint16(0)
	for s, ok := range live {
		if ok {
			remap[s] = n
			n++
		}
	}
	for i := range p.Code {
		slotFields(&p.Code[i], func(s *uint16) { *s = remap[*s] })
	}
	p.NumSlots = int(n)
}

// slotFields visits every operand field of in that holds a condition
// slot — and only those: constant-pool indices (Test, OpStepPos.A,
// OpCondPos.B, OpCondCmp.A), end-of-step markers and the NoBaseSlot
// sentinel are not slots.
func slotFields(in *Instr, f func(*uint16)) {
	switch in.Op {
	case OpStepCond, OpInvStepCond, OpFilterF, OpOrF, OpAndAcc, OpRetBool:
		f(&in.A)
	case OpSaveF, OpStore, OpCondTrue, OpCondFalse, OpCondLabel, OpCondCmp:
		f(&in.Dst)
	case OpAnd, OpOr, OpAndSlot:
		f(&in.A)
		f(&in.B)
		f(&in.Dst)
	case OpNot, OpCopy:
		f(&in.A)
		f(&in.Dst)
	case OpCondPos:
		if in.A != NoBaseSlot {
			f(&in.A)
		}
		f(&in.Dst)
	case OpStepPosBase:
		// Dst is the base-slot *read*; A is a PosConds index, not a slot.
		f(&in.Dst)
	}
}
