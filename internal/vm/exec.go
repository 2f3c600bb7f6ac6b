package vm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"xpathcomplexity/internal/axes"
	"xpathcomplexity/internal/counting"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/nodeset"
	"xpathcomplexity/internal/obs"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
)

// RunOptions configure one execution of a Program.
type RunOptions struct {
	// Counter counts elementary operations; may be nil.
	Counter *evalctx.Counter
	// DisableIndex executes without the per-document index: dense-only
	// frontiers and full-scan node tests, the differential suites' cold
	// reference behaviour.
	DisableIndex bool
	// Tracer, when non-nil, receives one top-level enter/exit span — the
	// bytecode is flat, so there is no per-subexpression recursion to
	// trace. Root must be set when Tracer is.
	Tracer *obs.Tracer
	// Root is the source expression the program was compiled from, used
	// only to label the tracer's top-level span.
	Root ast.Expr
	// Metrics, when non-nil, receives engine.vm.* totals, the
	// sparse→dense demotion count (vm.mode_switches) and scratch-pool
	// stats.
	Metrics *obs.Metrics
	// Guard, when non-nil, enforces cancellation and the resource
	// limits at opcode granularity. It is charged in lockstep with
	// Counter, so its MaxOps uses the same units as Counter.Budget.
	Guard *evalctx.Guard
}

// Run executes the program for one evaluation context. Node-set queries
// return a value.NodeSet in document order; condition queries return the
// value.Boolean of the context node's membership. Concurrent Run calls
// on a shared Program are safe: all mutable state lives in a pooled
// per-call machine.
func (p *Program) Run(ctx evalctx.Context, opts RunOptions) (value.Value, error) {
	if ctx.Node == nil {
		return nil, fmt.Errorf("vm: nil context node")
	}
	if opts.Counter == nil && (opts.Metrics != nil || opts.Tracer != nil) {
		// Instrumentation needs a counter to measure op deltas; synthesize
		// a private one so metrics reconcile even without a caller counter.
		opts.Counter = new(evalctx.Counter)
	}
	m := machinePool.Get().(*machine)
	m.prog = p
	m.doc = ctx.Node.Document()
	m.chargeUnit = int64(len(m.doc.Nodes))
	m.ctr = opts.Counter
	m.guard = opts.Guard
	m.arena = nodeset.NewArena()
	if !opts.DisableIndex {
		m.ix = m.doc.Index()
	}
	defer m.release()
	startOps := opts.Counter.Ops()
	v, err := m.run(ctx, opts)
	if mt := opts.Metrics; mt != nil {
		mt.Counter("engine.vm.ops").Add(opts.Counter.Ops() - startOps)
		mt.Counter("engine.vm.evals").Inc()
		mt.Counter("vm.mode_switches").Add(m.modeSwitches)
		hits, misses := m.arena.Stats()
		obs.RecordScratch(mt, hits, misses)
	}
	return v, err
}

// machinePool recycles machines (with their slot, test-set and mark
// buffers) across executions, so a warm run allocates nothing.
var machinePool = sync.Pool{New: func() any { return new(machine) }}

// machine is the per-execution mutable state: the frontier register,
// the backward accumulator, the condition slots, and the resolved
// constant pools.
type machine struct {
	prog       *Program
	doc        *xmltree.Document
	ix         *xmltree.Index // nil when the index is disabled
	ctr        *evalctx.Counter
	guard      *evalctx.Guard
	arena      *nodeset.Arena
	chargeUnit int64

	// slots are the condition-set registers; tsets caches the resolved
	// constant-pool test sets (Words == nil marks unresolved). Both keep
	// their capacity across pooled executions.
	slots []nodeset.Set
	tsets []nodeset.Set

	// acc is the backward-pass accumulator.
	acc nodeset.Set

	// Forward frontier: an explicit node list while sparse (bounded by
	// |D|/sparseDivisor), a dense bitset after demotion. The list
	// double-buffers between two arena node buffers, as in corelinear.
	sparse     bool
	list       []*xmltree.Node
	dense      nodeset.Set
	cur, spare *[]*xmltree.Node

	marks        []bool // scratch dedup bitmap, always reset after use
	visBuf       *[]*xmltree.Node
	pruneBuf     *[]*xmltree.Node
	modeSwitches int64

	// posRank/posTotal are per-parent counter scratch for the dense
	// positional step (indexed by parent ord, zeroed at each use).
	posRank  []int32
	posTotal []int32

	// text is the string-value scratch buffer of the comparison and
	// sum() loops (see strval).
	text []byte
}

// release returns the machine and its arena-backed scratch memory to
// the pools. Slot and test sets are arena-backed or cache-aliased, so
// their headers are dropped before the arena goes back; the slot/tset
// slices and marks bitmap keep capacity for the next run.
func (m *machine) release() {
	clear(m.slots)
	clear(m.tsets)
	m.arena.Release()
	m.prog, m.doc, m.ix, m.ctr, m.guard, m.arena = nil, nil, nil, nil, nil, nil
	m.acc, m.dense = nodeset.Set{}, nodeset.Set{}
	m.list, m.cur, m.spare = nil, nil, nil
	m.visBuf, m.pruneBuf = nil, nil
	m.sparse = false
	m.modeSwitches = 0
	if cap(m.text) > maxPooledText {
		m.text = nil
	}
	machinePool.Put(m)
}

// charge bumps the counter and the guard by one |D|-sized unit, exactly
// like the tree evaluators, so budgets are engine-independent.
func (m *machine) charge() error {
	if err := m.ctr.Step(m.chargeUnit); err != nil {
		return err
	}
	if m.guard != nil {
		return m.guard.Step(m.chargeUnit)
	}
	return nil
}

// testSet resolves a constant-pool node test to its membership set,
// once per distinct pool entry per execution: aliasing the index's
// shared per-document cache when available, by one full scan otherwise.
// The result is read-only; callers only And it into owned sets.
func (m *machine) testSet(ti uint16) nodeset.Set {
	if s := m.tsets[ti]; s.Words != nil {
		return s
	}
	e := m.prog.Tests[ti]
	a := ast.AxisChild
	if e.Attr {
		a = ast.AxisAttribute
	}
	var s nodeset.Set
	if m.ix != nil {
		s = nodeset.TestSetCached(m.ix, a, e.Test)
	} else {
		s = nodeset.TestSetArena(m.arena, m.doc, a, e.Test)
	}
	m.tsets[ti] = s
	return s
}

// run sizes the registers, brackets the execution with the guard and
// the (single-span) tracer, and dispatches the instruction stream.
func (m *machine) run(ctx evalctx.Context, opts RunOptions) (value.Value, error) {
	if g := m.guard; g != nil {
		if err := g.Enter(); err != nil {
			return nil, err
		}
		defer g.Exit()
	}
	if opts.Tracer == nil {
		return m.exec(ctx)
	}
	sp := opts.Tracer.Enter(opts.Root, ctx, m.ctr)
	v, err := m.exec(ctx)
	opts.Tracer.Exit(sp, v, m.ctr)
	return v, err
}

// prep sizes the registers and bills the peephole pass's folded-out
// charges (PreCharge), keeping MaxOps budgets identical to the tree
// evaluator, which still visits the folded condition nodes.
func (m *machine) prep() error {
	p := m.prog
	if cap(m.slots) < p.NumSlots {
		m.slots = make([]nodeset.Set, p.NumSlots)
	} else {
		m.slots = m.slots[:p.NumSlots]
		clear(m.slots)
	}
	if cap(m.tsets) < len(p.Tests) {
		m.tsets = make([]nodeset.Set, len(p.Tests))
	} else {
		m.tsets = m.tsets[:len(p.Tests)]
		clear(m.tsets)
	}
	for i := 0; i < p.PreCharge; i++ {
		if err := m.charge(); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) exec(ctx evalctx.Context) (value.Value, error) {
	p := m.prog
	if err := m.prep(); err != nil {
		return nil, err
	}
	for _, in := range p.Code {
		switch in.Op {
		case OpInitCtx:
			m.initFrontier(ctx.Node)
		case OpInitRoot:
			m.initFrontier(m.doc.Root)
		case OpStep:
			if err := m.step(in.Axis, in.Test, nodeset.Set{}, in.B != 0); err != nil {
				return nil, err
			}
		case OpStepCond:
			if err := m.step(in.Axis, in.Test, m.slots[in.A], in.B != 0); err != nil {
				return nil, err
			}
		case OpAxisF:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.ensureDense()
			m.dense = nodeset.ApplyAxisIndexedOwned(m.arena, m.ix, in.Axis, m.dense)
		case OpTestF:
			m.dense = m.dense.AndWith(m.testSet(in.Test))
		case OpFilterF:
			if m.sparse {
				m.filterSparse(m.slots[in.A])
				if in.B != 0 {
					if err := m.endStep(); err != nil {
						return nil, err
					}
				}
			} else {
				m.dense = m.dense.AndWith(m.slots[in.A])
			}
		case OpSaveF:
			m.ensureDense()
			m.slots[in.Dst] = m.dense
		case OpOrF:
			m.ensureDense()
			m.dense = m.dense.OrWith(m.slots[in.A])
		case OpEnter:
			if g := m.guard; g != nil {
				if err := g.Enter(); err != nil {
					return nil, err
				}
			}
		case OpExit:
			if g := m.guard; g != nil {
				g.Exit()
			}
		case OpBegin:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.acc = m.arena.Full(m.doc)
		case OpInvStep:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.acc = nodeset.ApplyInverseAxisIndexedOwned(m.arena, m.ix, in.Axis,
				m.acc.AndWith(m.testSet(in.Test)))
		case OpInvStepCond:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.acc = nodeset.ApplyInverseAxisIndexedOwned(m.arena, m.ix, in.Axis,
				m.acc.AndWith(m.testSet(in.Test)).AndWith(m.slots[in.A]))
		case OpTestAnd:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.acc = m.acc.AndWith(m.testSet(in.Test))
		case OpAndAcc:
			m.acc = m.acc.AndWith(m.slots[in.A])
		case OpInvAxis:
			m.acc = nodeset.ApplyInverseAxisIndexedOwned(m.arena, m.ix, in.Axis, m.acc)
		case OpAnchorRoot:
			if m.acc.Has(m.doc.Root) {
				m.acc = m.arena.Full(m.doc)
			} else {
				m.acc = m.arena.New(m.doc)
			}
		case OpStore:
			m.slots[in.Dst] = m.acc
		case OpCondTrue:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.arena.Full(m.doc)
		case OpCondFalse:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.arena.New(m.doc)
		case OpCondLabel:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = nodeset.LabelSetArena(m.arena, m.doc, m.prog.Labels[in.Test])
		case OpAnd:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.arena.And(m.slots[in.A], m.slots[in.B])
		case OpOr:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.arena.Or(m.slots[in.A], m.slots[in.B])
		case OpNot:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.arena.Not(m.slots[in.A])
		case OpCopy:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.slots[in.A]
		case OpRetSet:
			if m.sparse {
				// FromNodes restores document order and dedups; Nodes()
				// materializes into fresh heap memory that survives the
				// arena release.
				return value.NodeSetFromOrdered(m.arena.FromNodes(m.doc, m.list...).Nodes()), nil
			}
			return value.NodeSetFromOrdered(m.dense.Nodes()), nil
		case OpRetBool:
			return value.Boolean(m.slots[in.A].HasOrd(int(ctx.Node.Ord))), nil
		case OpCondPos:
			if err := m.condPos(in); err != nil {
				return nil, err
			}
		case OpStepPos:
			if err := m.stepPos(in.Axis, in.Test, p.PosConds[in.A], nodeset.Set{}, in.B != 0); err != nil {
				return nil, err
			}
		case OpStepPosBase:
			if err := m.stepPos(in.Axis, in.Test, p.PosConds[in.A], m.slots[in.Dst], in.B != 0); err != nil {
				return nil, err
			}
		case OpAndSlot:
			m.slots[in.Dst] = m.arena.And(m.slots[in.A], m.slots[in.B])
		case OpCondCmp:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.slots[in.Dst] = m.condCmp(m.testSet(in.Test), p.Cmps[in.A])
		case OpRetCount:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.ensureDense()
			return value.Number(m.dense.Count()), nil
		case OpRetSum:
			if err := m.charge(); err != nil {
				return nil, err
			}
			m.ensureDense()
			return value.Number(m.sum(m.dense)), nil
		default:
			return nil, fmt.Errorf("vm: invalid opcode %d", in.Op)
		}
	}
	return nil, fmt.Errorf("vm: program ended without a return instruction")
}

// maxPooledText bounds the string-value buffer a pooled machine keeps;
// a larger one (a huge mixed-content element) goes back to the GC.
const maxPooledText = 64 << 10

// strval returns n's string-value assembled in the machine's reusable
// buffer. The string aliases the buffer: it is valid only until the
// next call, so callers inspect it (LiteralCmp.Match, ParseNumber —
// neither retains its argument) and drop it. This keeps the comparison
// and sum() loops allocation-free on mixed-content elements, where
// StringValue would build a fresh string per node.
func (m *machine) strval(n *xmltree.Node) string {
	m.text = n.AppendStringValue(m.text[:0])
	return unsafe.String(unsafe.SliceData(m.text), len(m.text))
}

// condCmp computes a literal-comparison condition set: the members of
// the test set whose string-value satisfies lc, one string-value per
// candidate. It allocates only its output set, from the arena.
func (m *machine) condCmp(ts nodeset.Set, lc value.LiteralCmp) nodeset.Set {
	out := m.arena.New(m.doc)
	nodes := m.doc.Nodes
	for wi, w := range ts.Words {
		for w != 0 {
			ord := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if lc.Match(m.strval(nodes[ord])) {
				out.Words[wi] |= 1 << (uint(ord) & 63)
			}
		}
	}
	return out
}

// sum adds the members' string-values converted to numbers in document
// order — the order sum() over a sorted node-set adds them in, so the
// floating-point result is identical to the tree engines'.
func (m *machine) sum(s nodeset.Set) float64 {
	total := 0.0
	nodes := m.doc.Nodes
	for wi, w := range s.Words {
		for w != 0 {
			ord := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			total += value.ParseNumber(m.strval(nodes[ord]))
		}
	}
	return total
}

// sparseDivisor bounds list-mode frontiers, as in corelinear: a
// frontier stays an explicit node list while it holds at most
// |D|/sparseDivisor nodes.
const sparseDivisor = 2

// initFrontier starts the forward pass at a single node: sparse when
// the index is available, dense otherwise (the seed behaviour).
func (m *machine) initFrontier(n *xmltree.Node) {
	if m.ix == nil {
		m.dense = m.arena.New(m.doc)
		m.dense.Add(n)
		m.sparse = false
		return
	}
	if m.cur == nil {
		m.cur, m.spare = m.arena.NodeBuf(), m.arena.NodeBuf()
	}
	*m.cur = append((*m.cur)[:0], n)
	m.list = *m.cur
	m.sparse = true
}

// demote converts the sparse frontier to a dense bitset; the frontier
// stays dense for the rest of the path.
func (m *machine) demote() {
	m.dense = m.arena.FromNodes(m.doc, m.list...)
	m.sparse = false
	m.modeSwitches++
}

// ensureDense demotes without counting a mode switch (materialization
// for save/union/unfused execution, not a size-pressure fallback).
func (m *machine) ensureDense() {
	if m.sparse {
		m.dense = m.arena.FromNodes(m.doc, m.list...)
		m.sparse = false
	}
}

// filterSparse compacts the sparse frontier by a condition set in
// place; the frontier buffer is exclusively ours.
func (m *machine) filterSparse(cond nodeset.Set) {
	kept := m.list[:0]
	for _, n := range m.list {
		if cond.HasOrd(int(n.Ord)) {
			kept = append(kept, n)
		}
	}
	m.list = kept
	*m.cur = kept
}

// endStep applies corelinear's end-of-step rules to a sparse frontier:
// demote once past the sparse bound, then count the (still-)materialized
// frontier against the guard's node-set limit. Dense bitsets are O(|D|)
// by construction and are never checked.
func (m *machine) endStep() error {
	if len(m.list) > len(m.doc.Nodes)/sparseDivisor {
		m.demote()
		return nil
	}
	if m.guard != nil {
		return m.guard.CheckNodeSet(len(m.list))
	}
	return nil
}

// step executes one fused forward step: charge, axis image, node test,
// the optional fused condition filter (cond.Words == nil means none),
// and — when this instruction ends the step (endStep; residual
// OpFilterF instructions otherwise carry the flag) — the sparse
// demote/guard bookkeeping.
func (m *machine) step(a ast.Axis, ti uint16, cond nodeset.Set, endStep bool) error {
	if err := m.charge(); err != nil {
		return err
	}
	if m.sparse {
		if sel, ok := m.selectSparse(a, ti, m.list, (*m.spare)[:0]); ok {
			*m.spare = sel
			m.list = sel
			m.cur, m.spare = m.spare, m.cur
		} else {
			m.demote()
		}
	}
	if !m.sparse {
		m.dense = nodeset.ApplyAxisIndexedOwned(m.arena, m.ix, a, m.dense).
			AndWith(m.testSet(ti))
		if cond.Words != nil {
			m.dense = m.dense.AndWith(cond)
		}
		return nil
	}
	if cond.Words != nil {
		m.filterSparse(cond)
	}
	if endStep {
		return m.endStep()
	}
	return nil
}

// condPos fills a positional condition slot: one charge (the condition
// node) and one O(|D|) counting pass ranking every node among its
// parent's test∧base-passing children (package counting).
func (m *machine) condPos(in Instr) error {
	if err := m.charge(); err != nil {
		return err
	}
	base := nodeset.Set{}
	if in.A != NoBaseSlot {
		base = m.slots[in.A]
	}
	out := m.arena.New(m.doc)
	counting.Fill(m.doc, in.Axis, m.testSet(in.Test), base, m.prog.PosConds[in.B], out)
	m.slots[in.Dst] = out
	return nil
}

// stepPos executes the fused positional superinstructions
// (OpStepPos/OpStepPosBase): a forward child/attribute step whose
// positional predicate ranks siblings passing the node test and, when
// base is non-zero, the base set (the conjunction of the step's
// earlier predicates). Two charges (the step and the condition node),
// matching the tree evaluator. On a sparse frontier the ranks come
// free: selectSparse appends each frontier parent's test-passing
// children as one contiguous run in sibling order. On a dense frontier
// the step is candidate-driven: it walks the words of test∧base — the
// candidates, usually a small fraction of the document — in ord order,
// which visits each parent's children (and attributes) in sibling
// order, and ranks them with per-parent counters. Cost is
// O(|test∧base| + |D|/64), with no axis-image materialization and no
// whole-document counting pass.
func (m *machine) stepPos(a ast.Axis, ti uint16, cm counting.Cmp, base nodeset.Set, endStep bool) error {
	if err := m.charge(); err != nil {
		return err
	}
	if err := m.charge(); err != nil {
		return err
	}
	if m.sparse {
		if sel, ok := m.selectSparse(a, ti, m.list, (*m.spare)[:0]); ok {
			*m.spare = sel
			m.list = sel
			m.cur, m.spare = m.spare, m.cur
			m.rankFilter(cm, base)
			if endStep {
				return m.endStep()
			}
			return nil
		}
		m.demote()
	}
	ts := m.testSet(ti)
	out := m.arena.New(m.doc)
	nodes := m.doc.Nodes
	n := len(nodes)
	needLast := cm.UsesLast()
	if cap(m.posRank) < n {
		m.posRank = make([]int32, n)
	}
	rank := m.posRank[:n]
	clear(rank)
	tw, bw, fw, ow := ts.Words, base.Words, m.dense.Words, out.Words
	attrAxis := a == ast.AxisAttribute
	// The node-type guard: a node() test set contains every node, but
	// only attribute nodes are attribute-axis candidates and attribute
	// nodes are nobody's children. The root (Parent == nil) is skipped
	// the same way.
	candidate := func(c *xmltree.Node) bool {
		if attrAxis {
			return c.Type == xmltree.AttributeNode
		}
		return c.Type != xmltree.AttributeNode && c.Parent != nil
	}
	if needLast {
		// Pass 1: per-parent totals of test∧base-passing siblings, for
		// parents in the frontier.
		if cap(m.posTotal) < n {
			m.posTotal = make([]int32, n)
		}
		total := m.posTotal[:n]
		clear(total)
		for wi, w := range tw {
			if bw != nil {
				w &= bw[wi]
			}
			for w != 0 {
				ord := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				c := nodes[ord]
				if !candidate(c) {
					continue
				}
				po := c.Parent.Ord
				if fw[po>>6]&(1<<(uint(po)&63)) != 0 {
					total[po]++
				}
			}
		}
		for wi, w := range tw {
			if bw != nil {
				w &= bw[wi]
			}
			for w != 0 {
				ord := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				c := nodes[ord]
				if !candidate(c) {
					continue
				}
				po := c.Parent.Ord
				if fw[po>>6]&(1<<(uint(po)&63)) == 0 {
					continue
				}
				r := rank[po] + 1
				rank[po] = r
				if cm.Eval(int(r), int(total[po])) {
					ow[ord>>6] |= 1 << (uint(ord) & 63)
				}
			}
		}
	} else {
		for wi, w := range tw {
			if bw != nil {
				w &= bw[wi]
			}
			for w != 0 {
				ord := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				c := nodes[ord]
				if !candidate(c) {
					continue
				}
				po := c.Parent.Ord
				if fw[po>>6]&(1<<(uint(po)&63)) == 0 {
					continue
				}
				r := rank[po] + 1
				rank[po] = r
				if cm.Eval(int(r), 0) {
					ow[ord>>6] |= 1 << (uint(ord) & 63)
				}
			}
		}
	}
	m.dense = out
	return nil
}

// rankFilter compacts the sparse frontier to the nodes whose rank in
// their same-parent run satisfies the comparison. The frontier is
// duplicate free, so each parent contributes exactly one run. A
// non-zero base restricts both the ranking and the survivors to its
// members (OpStepPosBase).
func (m *machine) rankFilter(cm counting.Cmp, base nodeset.Set) {
	hasBase := base.Words != nil
	list := m.list
	kept := list[:0]
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && list[j].Parent == list[i].Parent {
			j++
		}
		last := 0
		for k := i; k < j; k++ {
			if !hasBase || base.HasOrd(int(list[k].Ord)) {
				last++
			}
		}
		rank := 0
		for k := i; k < j; k++ {
			if hasBase && !base.HasOrd(int(list[k].Ord)) {
				continue
			}
			rank++
			if cm.Eval(rank, last) {
				kept = append(kept, list[k])
			}
		}
		i = j
	}
	m.list = kept
	*m.cur = kept
}

// selectSparse computes axis::test over an explicit frontier list, for
// the axes whose cost is bounded by the frontier and output sizes. It
// mirrors corelinear's selection exactly, with one compiled-form
// advantage: node-test matching is a bit probe into the resolved
// constant-pool set instead of a per-node axes.MatchTest call. Results
// are duplicate free, in arbitrary order (document order is restored at
// materialization).
func (m *machine) selectSparse(a ast.Axis, ti uint16, list, out []*xmltree.Node) ([]*xmltree.Node, bool) {
	ts := m.testSet(ti)
	switch a {
	case ast.AxisSelf:
		for _, n := range list {
			if ts.HasOrd(int(n.Ord)) {
				out = append(out, n)
			}
		}
	case ast.AxisChild:
		// Distinct frontier nodes have disjoint child lists: no dedup.
		for _, n := range list {
			for _, c := range n.Children {
				if ts.HasOrd(int(c.Ord)) {
					out = append(out, c)
				}
			}
		}
	case ast.AxisAttribute:
		for _, n := range list {
			for _, at := range n.Attrs {
				if ts.HasOrd(int(at.Ord)) {
					out = append(out, at)
				}
			}
		}
	case ast.AxisParent:
		m.ensureMarks()
		for _, n := range list {
			if p := n.Parent; p != nil && !m.marks[p.Ord] && ts.HasOrd(int(p.Ord)) {
				m.marks[p.Ord] = true
				out = append(out, p)
			}
		}
		for _, n := range out {
			m.marks[n.Ord] = false
		}
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		// Walk parent chains with a visited-stop: once a chain hits an
		// already-visited node the rest of it is visited too.
		m.ensureMarks()
		par := m.ix.ParentOrds()
		vb := m.nodeBuf(&m.visBuf)
		visited := (*vb)[:0]
		for _, n := range list {
			j := n.Ord
			if a == ast.AxisAncestor {
				j = par[n.Ord]
			}
			for ; j >= 0 && !m.marks[j]; j = par[j] {
				m.marks[j] = true
				visited = append(visited, m.doc.Nodes[j])
			}
		}
		*vb = visited
		for _, v := range visited {
			m.marks[v.Ord] = false
			if ts.HasOrd(int(v.Ord)) {
				out = append(out, v)
			}
		}
	case ast.AxisFollowingSibling:
		// The same visited-stop trick along next-sibling chains.
		m.ensureMarks()
		next := m.ix.NextSiblingOrds()
		vb := m.nodeBuf(&m.visBuf)
		visited := (*vb)[:0]
		for _, n := range list {
			for j := next[n.Ord]; j >= 0 && !m.marks[j]; j = next[j] {
				m.marks[j] = true
				visited = append(visited, m.doc.Nodes[j])
			}
		}
		*vb = visited
		for _, v := range visited {
			m.marks[v.Ord] = false
			if ts.HasOrd(int(v.Ord)) {
				out = append(out, v)
			}
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		// After pruning nested members the surviving subtrees are
		// pairwise disjoint; SelectFast slices the index's tag lists.
		t := m.prog.Tests[ti].Test
		for _, n := range m.pruneNested(list) {
			sel, ok := axes.SelectFast(m.ix, a, t, n)
			if !ok {
				return nil, false
			}
			out = append(out, sel...)
		}
	case ast.AxisFollowing, ast.AxisPreceding:
		if len(list) != 1 {
			return nil, false
		}
		sel, ok := axes.SelectFast(m.ix, a, m.prog.Tests[ti].Test, list[0])
		if !ok {
			return nil, false
		}
		out = append(out, sel...)
	default:
		return nil, false
	}
	return out, true
}

func (m *machine) ensureMarks() {
	if len(m.marks) < len(m.doc.Nodes) {
		m.marks = make([]bool, len(m.doc.Nodes))
	}
}

func (m *machine) nodeBuf(p **[]*xmltree.Node) *[]*xmltree.Node {
	if *p == nil {
		*p = m.arena.NodeBuf()
	}
	return *p
}

// pruneNested drops list members lying inside another member's subtree
// (attributes share their owner's interval and survive alongside it).
//
// A frontier assembled by a previous descendant step is a concatenation
// of disjoint subtree slices in document order, so it arrives already
// sorted; one O(n) ordered-scan detects that and skips the
// comparator-driven sort, which otherwise dominates descendant-chain
// queries. (corelinear sorts unconditionally — this is a compiled-form
// win: the bytecode's step pipeline makes the invariant cheap to
// exploit.)
func (m *machine) pruneNested(list []*xmltree.Node) []*xmltree.Node {
	if len(list) <= 1 {
		return list
	}
	inOrder := true
	for i := 1; i < len(list); i++ {
		if list[i-1].Pre > list[i].Pre {
			inOrder = false
			break
		}
	}
	pb := m.nodeBuf(&m.pruneBuf)
	sorted := append((*pb)[:0], list...)
	*pb = sorted
	if !inOrder {
		slices.SortFunc(sorted, func(a, b *xmltree.Node) int { return int(a.Pre - b.Pre) })
	}
	out := sorted[:0]
	for _, n := range sorted {
		if len(out) > 0 {
			if last := out[len(out)-1]; n.Pre > last.Pre && n.Post < last.Post {
				continue
			}
		}
		out = append(out, n)
	}
	return out
}
