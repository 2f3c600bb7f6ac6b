package vm

import (
	"errors"
	"fmt"
	"math"

	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xpath/ast"
)

// ErrNotVM reports a query outside the fragment the VM compiles: Core
// XPath (Definition 2.5 with the Remark 3.1 label test and the explicit
// boolean()/true()/false() conversions) extended with the counting
// fragment's positional predicates (package counting), comparisons of
// a location path with a string or number literal, and top-level
// count()/sum() of a node-set; top-level unions are restricted to
// location-path operands.
var ErrNotVM = errors.New("query does not compile to VM bytecode")

// IneligibleError is the concrete VM-ineligibility error: it wraps
// ErrNotVM (errors.Is keeps working) and carries a low-cardinality
// Reason tag suitable for a metric label, feeding the planner's view of
// why queries miss the fastest engine.
type IneligibleError struct {
	// Reason is the stable tag: "operator", "function", "expr-type",
	// "union", "slot-overflow", "pool-overflow", "comparison",
	// "positional-axis", "positional-shape", "positional-context",
	// "positional-shared".
	Reason string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *IneligibleError) Error() string { return ErrNotVM.Error() + ": " + e.Detail }

// Unwrap makes errors.Is(err, ErrNotVM) hold.
func (e *IneligibleError) Unwrap() error { return ErrNotVM }

func notVM(reason, format string, args ...any) error {
	return &IneligibleError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Reason extracts the ineligibility reason tag from a Compile error;
// it returns "other" for untagged ErrNotVM errors and "" for non-VM
// errors.
func Reason(err error) string {
	var ie *IneligibleError
	if errors.As(err, &ie) {
		return ie.Reason
	}
	if errors.Is(err, ErrNotVM) {
		return "other"
	}
	return ""
}

// DisableFusion is a test hook: when set before Compile, the emitted
// bytecode uses only unfused opcodes (OpAxisF/OpTestF/OpFilterF and
// OpTestAnd/OpAndAcc/OpInvAxis; positional predicates compile to
// OpCondPos + OpFilterF instead of OpStepPos) so the differential
// suites can prove the fused and unfused execution paths agree. The
// unfused forward path also runs without the sparse-frontier fast path —
// the superinstructions are what carry it — making this the dense
// reference execution. Not for concurrent mutation; tests that need
// per-call control use CompileWith.
var DisableFusion bool

// Options control compilation; the zero value is the production
// configuration.
type Options struct {
	// DisableFusion emits only unfused opcodes (see the DisableFusion
	// package hook). It also disables the peephole pass's re-fusion
	// rewrites.
	DisableFusion bool
	// DisableConstDedup appends a fresh constant-pool entry per use
	// instead of sharing equal entries. Evaluation results must not
	// depend on pool layout; the metamorphic suite proves it.
	DisableConstDedup bool
	// DisablePeephole skips the post-compile peephole pass, preserving
	// the raw reference emission for differential testing.
	DisablePeephole bool
}

// Compile lowers an XPath expression in the VM fragment to bytecode.
// Queries outside the fragment return an error wrapping ErrNotVM.
func Compile(expr ast.Expr) (*Program, error) {
	return CompileWith(expr, Options{DisableFusion: DisableFusion})
}

// CompileWith is Compile with explicit options.
func CompileWith(expr ast.Expr, opts Options) (*Program, error) {
	c := &compiler{
		opts:     opts,
		slots:    make(map[condKey]uint16),
		fusedPos: make(map[*ast.Step]bool),
	}
	if !opts.DisableConstDedup {
		c.testIdx = make(map[TestEntry]uint16)
		c.labelIdx = make(map[string]uint16)
		c.posIdx = make(map[counting.Cmp]uint16)
		c.cmpIdx = make(map[value.LiteralCmp]uint16)
	}
	if err := c.top(expr); err != nil {
		return nil, err
	}
	p := &Program{
		Code:     c.code,
		Tests:    c.tests,
		Labels:   c.labels,
		PosConds: c.posConds,
		Cmps:     c.cmps,
		NumSlots: int(c.next),
	}
	if !opts.DisablePeephole {
		peephole(p, opts)
	}
	return p, nil
}

// condKey keys the compile-time condition memo. Position-insensitive
// conditions memoize by syntactic identity alone — the same keying as
// corelinear's runtime memo — while positional conditions additionally
// key on the owning (step, predicate-index) pair, because their meaning
// depends on where they sit.
type condKey struct {
	expr ast.Expr
	step *ast.Step
	pred int
}

// condEnv is the compilation context of a condition subexpression.
type condEnv struct {
	// step and pred locate the owning predicate (step nil at top level).
	step *ast.Step
	pred int
	// base is the slot holding the conjunction of the step's earlier
	// predicates (NoBaseSlot when pred 0 or no positional pred follows).
	base uint16
	// root marks the predicate root, where the XPath number-predicate
	// special forms apply ([k] selects by position).
	root bool
	// boolCtx marks a boolean-converting context (predicate, and/or/
	// not/boolean argument) where number constants fold by the ≠0 rule.
	// At top level a number-typed expression is a number query, which
	// the set-based engines cannot answer.
	boolCtx bool
}

// inner is the environment for subexpressions of a boolean connective.
func (e condEnv) inner() condEnv {
	e.root = false
	e.boolCtx = true
	return e
}

type compiler struct {
	opts     Options
	code     []Instr
	tests    []TestEntry
	testIdx  map[TestEntry]uint16 // nil with DisableConstDedup
	labels   []string
	labelIdx map[string]uint16 // nil with DisableConstDedup
	posConds []counting.Cmp
	posIdx   map[counting.Cmp]uint16 // nil with DisableConstDedup
	cmps     []value.LiteralCmp
	cmpIdx   map[value.LiteralCmp]uint16 // nil with DisableConstDedup
	// slots memoizes condition subexpressions (see condKey) so each is
	// computed (and charged) once per evaluation.
	slots map[condKey]uint16
	// fusedPos records steps whose positional predicate was fused into
	// an OpStepPos/OpStepPosBase. Re-compiling such a step (a DAG-shared
	// subexpression) would charge the condition twice where the tree
	// evaluator's memo charges once, so it is rejected instead.
	fusedPos map[*ast.Step]bool
	next     uint16
}

func (c *compiler) emit(in Instr) { c.code = append(c.code, in) }

func (c *compiler) alloc() (uint16, error) {
	if c.next == NoBaseSlot {
		return 0, notVM("slot-overflow", "more than %d condition slots", NoBaseSlot)
	}
	s := c.next
	c.next++
	return s, nil
}

// testRef interns a node test in the constant pool.
func (c *compiler) testRef(a ast.Axis, t ast.NodeTest) (uint16, error) {
	e := TestEntry{Test: t, Attr: a == ast.AxisAttribute}
	if c.testIdx != nil {
		if i, ok := c.testIdx[e]; ok {
			return i, nil
		}
	}
	if len(c.tests) > int(^uint16(0)) {
		return 0, notVM("pool-overflow", "node-test pool overflow")
	}
	i := uint16(len(c.tests))
	c.tests = append(c.tests, e)
	if c.testIdx != nil {
		c.testIdx[e] = i
	}
	return i, nil
}

// labelRef interns a Remark 3.1 label in the constant pool.
func (c *compiler) labelRef(l string) (uint16, error) {
	if c.labelIdx != nil {
		if i, ok := c.labelIdx[l]; ok {
			return i, nil
		}
	}
	if len(c.labels) > int(^uint16(0)) {
		return 0, notVM("pool-overflow", "label pool overflow")
	}
	i := uint16(len(c.labels))
	c.labels = append(c.labels, l)
	if c.labelIdx != nil {
		c.labelIdx[l] = i
	}
	return i, nil
}

// posRef interns a positional comparison in the constant pool.
func (c *compiler) posRef(cm counting.Cmp) (uint16, error) {
	if c.posIdx != nil {
		if i, ok := c.posIdx[cm]; ok {
			return i, nil
		}
	}
	if len(c.posConds) > int(^uint16(0)) {
		return 0, notVM("pool-overflow", "positional-comparison pool overflow")
	}
	i := uint16(len(c.posConds))
	c.posConds = append(c.posConds, cm)
	if c.posIdx != nil {
		c.posIdx[cm] = i
	}
	return i, nil
}

// top compiles the top-level expression: a path materializes forward, a
// union of paths evaluates each side and unions the frontiers, count()
// and sum() of either reduce the materialized frontier to a number, and
// anything else is a condition answered at the context node.
func (c *compiler) top(expr ast.Expr) error {
	ret, fn := OpRetSet, ""
	if call, ok := expr.(*ast.Call); ok && len(call.Args) == 1 {
		switch call.Name {
		case "count":
			ret, fn, expr = OpRetCount, call.Name, call.Args[0]
		case "sum":
			ret, fn, expr = OpRetSum, call.Name, call.Args[0]
		}
	}
	if p, ok := expr.(*ast.Path); ok {
		if err := c.fwdPath(p); err != nil {
			return err
		}
		c.emit(Instr{Op: ret})
		return nil
	}
	if b, ok := expr.(*ast.Binary); ok && b.Op == ast.OpUnion {
		paths, ok := flattenUnion(expr, nil)
		if !ok {
			return notVM("union", "top-level union of non-path operands")
		}
		tmp, err := c.alloc()
		if err != nil {
			return err
		}
		for i, p := range paths {
			// Each union side runs nested, like the tree evaluator's
			// per-side recursion.
			c.emit(Instr{Op: OpEnter})
			if err := c.fwdPath(p); err != nil {
				return err
			}
			c.emit(Instr{Op: OpExit})
			if i > 0 {
				c.emit(Instr{Op: OpOrF, A: tmp})
			}
			if i < len(paths)-1 {
				c.emit(Instr{Op: OpSaveF, Dst: tmp})
			}
		}
		c.emit(Instr{Op: ret})
		return nil
	}
	if fn != "" {
		return notVM("function", "%s() of a non-path argument", fn)
	}
	s, err := c.cond(expr, condEnv{base: NoBaseSlot})
	if err != nil {
		return err
	}
	c.emit(Instr{Op: OpRetBool, A: s})
	return nil
}

// flattenUnion collects the location-path leaves of a top-level union
// tree in evaluation order; ok is false when any leaf is not a path.
func flattenUnion(expr ast.Expr, acc []*ast.Path) ([]*ast.Path, bool) {
	switch x := expr.(type) {
	case *ast.Path:
		return append(acc, x), true
	case *ast.Binary:
		if x.Op != ast.OpUnion {
			return nil, false
		}
		acc, ok := flattenUnion(x.Left, acc)
		if !ok {
			return nil, false
		}
		return flattenUnion(x.Right, acc)
	default:
		return nil, false
	}
}

// fusePos decides whether a forward step fuses a positional predicate
// into an OpStepPos/OpStepPosBase, returning the comparison and the
// predicate index (-1 when nothing fuses). The candidate is the step's
// last position-sensitive predicate: everything before it folds into
// the fused instruction's base slot, and a positional predicate after
// it would need the candidate's whole-document set as a base, which
// fusion doesn't produce. It must be a bare recognizable comparison
// (wrapped forms like not(position() = 1) compile via OpCondPos) not
// already memoized as a slot.
func (c *compiler) fusePos(step *ast.Step) (counting.Cmp, int) {
	if c.opts.DisableFusion || len(step.Preds) == 0 || !counting.CountableAxis(step.Axis) {
		return counting.Cmp{}, -1
	}
	j := -1
	for i, p := range step.Preds {
		if counting.SensitiveRoot(p) {
			j = i
		}
	}
	if j < 0 {
		return counting.Cmp{}, -1
	}
	cnd, ok := counting.RecognizeRoot(step.Preds[j])
	if !ok || cnd.IsConst {
		return counting.Cmp{}, -1
	}
	if _, ok := c.slots[condKey{step.Preds[j], step, j}]; ok {
		return counting.Cmp{}, -1
	}
	return cnd.Cmp, j
}

// fwdPath emits the forward pass for a materialized location path: an
// init, then per step the predicates' condition subprograms followed by
// the (possibly fused) step instruction and any residual filters.
func (c *compiler) fwdPath(p *ast.Path) error {
	if p.Absolute {
		c.emit(Instr{Op: OpInitRoot})
	} else {
		c.emit(Instr{Op: OpInitCtx})
	}
	for _, step := range p.Steps {
		fuseCmp, fuseIdx := c.fusePos(step)
		if fuseIdx >= 0 && c.fusedPos[step] {
			// A second compilation of an already-fused step would charge
			// the positional condition again where corelinear's memo
			// charges once; parser output never shares step pointers, so
			// only synthetic DAG queries hit this.
			return notVM("positional-shared", "positional step compiled more than once")
		}
		if fuseIdx >= 0 {
			c.fusedPos[step] = true
		}
		preds, base, err := c.conds(step, fuseIdx)
		if err != nil {
			return err
		}
		ti, err := c.testRef(step.Axis, step.Test)
		if err != nil {
			return err
		}
		// B=1 marks the instruction that ends the step: the machine runs
		// the sparse demote/guard bookkeeping there, after every predicate
		// filter, exactly where corelinear runs it.
		switch {
		case fuseIdx >= 0:
			pi, err := c.posRef(fuseCmp)
			if err != nil {
				return err
			}
			// Predicates before the fused one live in the base slot (the
			// fused probe filters on it), so only the later ones remain as
			// residual filters.
			if fuseIdx < len(preds) {
				preds = preds[fuseIdx:]
			} else {
				preds = nil
			}
			end := uint16(0)
			if len(preds) == 0 {
				end = 1
			}
			if base == NoBaseSlot {
				c.emit(Instr{Op: OpStepPos, Axis: step.Axis, Test: ti, A: pi, B: end})
			} else {
				c.emit(Instr{Op: OpStepPosBase, Axis: step.Axis, Test: ti, A: pi, B: end, Dst: base})
			}
		case !c.opts.DisableFusion && len(preds) == 0:
			c.emit(Instr{Op: OpStep, Axis: step.Axis, Test: ti, B: 1})
		case !c.opts.DisableFusion:
			end := uint16(0)
			if len(preds) == 1 {
				end = 1
			}
			c.emit(Instr{Op: OpStepCond, Axis: step.Axis, Test: ti, A: preds[0], B: end})
			preds = preds[1:]
		default:
			c.emit(Instr{Op: OpAxisF, Axis: step.Axis})
			c.emit(Instr{Op: OpTestF, Test: ti})
		}
		for i, ps := range preds {
			end := uint16(0)
			if i == len(preds)-1 {
				end = 1
			}
			c.emit(Instr{Op: OpFilterF, A: ps, B: end})
		}
	}
	return nil
}

// conds compiles a step's predicate list to condition slots, skipping
// the predicate at index fused (-1 for none: it fuses into the step
// instruction itself). When later predicates are positional, the
// conjunction of each one's earlier predicates is assembled into a base
// slot with uncharged OpAndSlot chains — the ranks of predicate i count
// only siblings surviving predicates 0..i-1, mirroring the sequential
// re-ranking of the per-context engines. The second return is the base
// slot the fused predicate ranks against (NoBaseSlot when it has no
// earlier predicates, or nothing fused).
func (c *compiler) conds(step *ast.Step, fused int) ([]uint16, uint16, error) {
	preds := step.Preds
	fuseBase := uint16(NoBaseSlot)
	if len(preds) == 0 {
		return nil, fuseBase, nil
	}
	lastSens := -1
	if len(preds) > 1 {
		for i, p := range preds {
			if counting.SensitiveRoot(p) {
				lastSens = i
			}
		}
	}
	base := uint16(NoBaseSlot)
	out := make([]uint16, 0, len(preds))
	for i := 0; i < len(preds); i++ {
		if i == fused {
			fuseBase = base
			continue
		}
		env := condEnv{step: step, pred: i, base: NoBaseSlot, root: true, boolCtx: true}
		if i > 0 {
			env.base = base
		}
		s, err := c.cond(preds[i], env)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, s)
		if i < lastSens {
			if base == NoBaseSlot {
				base = s
			} else {
				dst, err := c.alloc()
				if err != nil {
					return nil, 0, err
				}
				c.emit(Instr{Op: OpAndSlot, A: base, B: s, Dst: dst})
				base = dst
			}
		}
	}
	return out, fuseBase, nil
}

// cond compiles a condition subexpression to the slot holding its
// whole-document set E[cond], emitting nothing when the identical
// subexpression was already compiled (the compile-time memo).
func (c *compiler) cond(expr ast.Expr, env condEnv) (uint16, error) {
	key := c.keyFor(expr, env)
	if s, ok := c.slots[key]; ok {
		return s, nil
	}
	c.emit(Instr{Op: OpEnter})
	s, err := c.condInner(expr, env)
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: OpExit})
	c.slots[key] = s
	return s, nil
}

// keyFor computes the memo key: positional conditions key on their
// owning (step, pred) pair, everything else on syntactic identity.
func (c *compiler) keyFor(expr ast.Expr, env condEnv) condKey {
	sens := counting.Sensitive(expr)
	if env.root {
		sens = counting.SensitiveRoot(expr)
	}
	if sens && env.step != nil {
		return condKey{expr, env.step, env.pred}
	}
	return condKey{expr: expr}
}

func (c *compiler) condInner(expr ast.Expr, env condEnv) (uint16, error) {
	if env.root {
		if cnd, ok := counting.RecognizeRoot(expr); ok {
			return c.posCond(cnd, env)
		}
		env.root = false
	}
	switch x := expr.(type) {
	case *ast.Binary:
		var op Op
		switch x.Op {
		case ast.OpAnd:
			op = OpAnd
		case ast.OpOr, ast.OpUnion:
			op = OpOr
		default:
			if x.Op.IsRelational() {
				if cnd, ok := counting.RecognizeCmp(x); ok {
					return c.posCond(cnd, env)
				}
				if p, lc, ok := literalCmp(x); ok {
					return c.bwdPath(p, &lc)
				}
				if positional(x.Left) || positional(x.Right) {
					return 0, notVM("positional-shape", "relational %q over a position()/last() operand", x.Op)
				}
				return 0, notVM("comparison", "relational %q outside path-versus-literal", x.Op)
			}
			if env.boolCtx {
				if cnd, ok := counting.RecognizeBool(x); ok {
					return c.posCond(cnd, env)
				}
			}
			return 0, notVM("operator", "operator %q", x.Op)
		}
		l, err := c.cond(x.Left, env.inner())
		if err != nil {
			return 0, err
		}
		r, err := c.cond(x.Right, env.inner())
		if err != nil {
			return 0, err
		}
		dst, err := c.alloc()
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: op, Dst: dst, A: l, B: r})
		return dst, nil
	case *ast.Call:
		switch x.Name {
		case "not":
			a, err := c.cond(x.Args[0], env.inner())
			if err != nil {
				return 0, err
			}
			dst, err := c.alloc()
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: OpNot, Dst: dst, A: a})
			return dst, nil
		case "boolean":
			a, err := c.cond(x.Args[0], env.inner())
			if err != nil {
				return 0, err
			}
			dst, err := c.alloc()
			if err != nil {
				return 0, err
			}
			c.emit(Instr{Op: OpCopy, Dst: dst, A: a})
			return dst, nil
		case "true", "false":
			return c.constSlot(x.Name == "true")
		case "position", "last":
			if !env.boolCtx {
				return 0, notVM("positional-context", "number-typed %s() at top level", x.Name)
			}
			// Both are always ≥ 1, so the ≠0 boolean rule makes them
			// constant true here.
			return c.constSlot(true)
		default:
			return 0, notVM("function", "function %q", x.Name)
		}
	case *ast.LabelTest:
		li, err := c.labelRef(x.Label)
		if err != nil {
			return 0, err
		}
		dst, err := c.alloc()
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpCondLabel, Dst: dst, Test: li})
		return dst, nil
	case *ast.Path:
		return c.bwdPath(x, nil)
	default:
		if env.boolCtx {
			if cnd, ok := counting.RecognizeBool(expr); ok {
				return c.posCond(cnd, env)
			}
		}
		return 0, notVM("expr-type", "%T in condition", expr)
	}
}

// constSlot emits a constant condition (one condition-node charge, like
// the tree evaluator visiting the node).
func (c *compiler) constSlot(v bool) (uint16, error) {
	dst, err := c.alloc()
	if err != nil {
		return 0, err
	}
	op := OpCondTrue
	if !v {
		op = OpCondFalse
	}
	c.emit(Instr{Op: op, Dst: dst})
	return dst, nil
}

// posCond compiles a recognized positional condition: constants fold,
// singleton axes evaluate at rank 1 of 1, countable axes emit an
// OpCondPos counting fill; everything else leaves the fragment.
func (c *compiler) posCond(cnd counting.Cond, env condEnv) (uint16, error) {
	if cnd.IsConst {
		return c.constSlot(cnd.Const)
	}
	step := env.step
	if step == nil {
		return 0, notVM("positional-context", "positional comparison outside a predicate")
	}
	if counting.SingletonAxis(step.Axis) {
		// self:: and parent:: select at most one node: position 1 of 1.
		return c.constSlot(cnd.Cmp.Eval(1, 1))
	}
	if !counting.CountableAxis(step.Axis) {
		return 0, notVM("positional-axis", "positional predicate on the %s axis", step.Axis)
	}
	ti, err := c.testRef(step.Axis, step.Test)
	if err != nil {
		return 0, err
	}
	pi, err := c.posRef(cnd.Cmp)
	if err != nil {
		return 0, err
	}
	dst, err := c.alloc()
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: OpCondPos, Axis: step.Axis, Test: ti, A: env.base, B: pi, Dst: dst})
	return dst, nil
}

// literalCmp recognizes a comparison of a location path with a string
// or number literal (constant-foldable numeric expressions included),
// stating it with the path on the left. NaN constants stay out, keeping
// the constant pool comparable.
func literalCmp(b *ast.Binary) (*ast.Path, value.LiteralCmp, bool) {
	p, ok := b.Left.(*ast.Path)
	lit, op := b.Right, b.Op
	if !ok {
		p, ok = b.Right.(*ast.Path)
		lit, op = b.Left, value.MirrorOp(b.Op)
	}
	if !ok || len(p.Steps) == 0 {
		return nil, value.LiteralCmp{}, false
	}
	if l, ok := lit.(*ast.Literal); ok {
		return p, value.LiteralCmp{Op: op, Str: l.Val}, true
	}
	if v, ok := counting.FoldConst(lit); ok && !math.IsNaN(v) {
		return p, value.LiteralCmp{Op: op, IsNum: true, Num: v}, true
	}
	return nil, value.LiteralCmp{}, false
}

// positional reports whether a comparison operand is a position() or
// last() call, possibly under arithmetic — the shapes the counting
// recognizer owns, so their rejection keeps its positional tag.
func positional(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Call:
		return x.Name == "position" || x.Name == "last"
	case *ast.Unary:
		return positional(x.Operand)
	case *ast.Binary:
		return x.Op.IsArithmetic() && (positional(x.Left) || positional(x.Right))
	}
	return false
}

// cmpRef interns a literal comparison in the constant pool.
func (c *compiler) cmpRef(lc value.LiteralCmp) (uint16, error) {
	if c.cmpIdx != nil {
		if i, ok := c.cmpIdx[lc]; ok {
			return i, nil
		}
	}
	if len(c.cmps) > int(^uint16(0)) {
		return 0, notVM("pool-overflow", "comparison pool overflow")
	}
	i := uint16(len(c.cmps))
	c.cmps = append(c.cmps, lc)
	if c.cmpIdx != nil {
		c.cmpIdx[lc] = i
	}
	return i, nil
}

// bwdPath emits the backward pass computing E[π] = { x | π from x
// selects ≥1 node }, right-to-left with inverse-axis operations. All
// predicate condition subprograms are hoisted ahead of the chain — the
// machine has a single backward accumulator, so a nested condition path
// must finish before this one starts. A non-nil lc makes it E[π op c]:
// an OpCondCmp slot of the last step's satisfying nodes joins that
// step's predicates, after the positional ones, so it filters without
// renumbering.
func (c *compiler) bwdPath(p *ast.Path, lc *value.LiteralCmp) (uint16, error) {
	predSlots := make([][]uint16, len(p.Steps))
	for i := len(p.Steps) - 1; i >= 0; i-- {
		ps, _, err := c.conds(p.Steps[i], -1)
		if err != nil {
			return 0, err
		}
		predSlots[i] = ps
	}
	if lc != nil {
		last := p.Steps[len(p.Steps)-1]
		ti, err := c.testRef(last.Axis, last.Test)
		if err != nil {
			return 0, err
		}
		ci, err := c.cmpRef(*lc)
		if err != nil {
			return 0, err
		}
		s, err := c.alloc()
		if err != nil {
			return 0, err
		}
		c.emit(Instr{Op: OpCondCmp, Axis: last.Axis, Test: ti, A: ci, Dst: s})
		predSlots[len(p.Steps)-1] = append(predSlots[len(p.Steps)-1], s)
	}
	dst, err := c.alloc()
	if err != nil {
		return 0, err
	}
	c.emit(Instr{Op: OpBegin})
	for i := len(p.Steps) - 1; i >= 0; i-- {
		step := p.Steps[i]
		ti, err := c.testRef(step.Axis, step.Test)
		if err != nil {
			return 0, err
		}
		ps := predSlots[i]
		switch {
		case !c.opts.DisableFusion && len(ps) == 0:
			c.emit(Instr{Op: OpInvStep, Axis: step.Axis, Test: ti})
		case !c.opts.DisableFusion && len(ps) == 1:
			c.emit(Instr{Op: OpInvStepCond, Axis: step.Axis, Test: ti, A: ps[0]})
		default:
			c.emit(Instr{Op: OpTestAnd, Test: ti})
			for _, s := range ps {
				c.emit(Instr{Op: OpAndAcc, A: s})
			}
			c.emit(Instr{Op: OpInvAxis, Axis: step.Axis})
		}
	}
	if p.Absolute {
		c.emit(Instr{Op: OpAnchorRoot})
	}
	c.emit(Instr{Op: OpStore, Dst: dst})
	return dst, nil
}
