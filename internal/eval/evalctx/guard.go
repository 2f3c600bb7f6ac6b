package evalctx

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCanceled reports that an evaluation was stopped by its
// context.Context — either an explicit cancel or an expired deadline.
// Guard-issued cancellation errors match it with errors.Is; the concrete
// error is a *CancelError wrapping the context's own error, so
// errors.Is(err, context.DeadlineExceeded) distinguishes deadlines from
// cancels when callers care.
var ErrCanceled = errors.New("evaluation canceled")

// ErrBudgetExceeded reports that an evaluation hit one of its Guard
// resource limits (operations, recursion depth, or node-set
// cardinality). The concrete error is a *BudgetError naming the limit.
var ErrBudgetExceeded = errors.New("evaluation resource limit exceeded")

// CancelError is the concrete cancellation error: it matches ErrCanceled
// with errors.Is and unwraps to the context's error (context.Canceled or
// context.DeadlineExceeded).
type CancelError struct {
	// Cause is the context error that stopped the evaluation.
	Cause error
}

// Error implements the error interface.
func (e *CancelError) Error() string {
	if e.Cause != nil {
		return "evaluation canceled: " + e.Cause.Error()
	}
	return "evaluation canceled"
}

// Unwrap exposes the context error for errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// BudgetError is the concrete resource-limit error, naming which Guard
// limit was exceeded. It matches both ErrBudgetExceeded and the legacy
// Counter sentinel ErrBudget with errors.Is, so existing budget-excuse
// checks keep working when callers move from Counter.Budget to Guard
// limits.
type BudgetError struct {
	// Limit names the exceeded limit: "ops", "depth" or "node-set".
	Limit string
	// Max is the configured bound; Used is the value that exceeded it.
	Max, Used int64
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("evaluation %s limit exceeded: %d > %d", e.Limit, e.Used, e.Max)
}

// Is matches ErrBudgetExceeded and the legacy ErrBudget sentinel.
func (e *BudgetError) Is(target error) bool {
	return target == ErrBudgetExceeded || target == ErrBudget
}

// IsResourceError reports whether err is a guard or counter verdict —
// cancellation, deadline, or any budget limit — as opposed to a semantic
// evaluation error. Error classification (the result cache, the flight
// recorder) keys on it: the user asked for the evaluation to stop.
func IsResourceError(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrBudget)
}

// Limits bound one guarded evaluation. Zero values disable the
// corresponding check.
type Limits struct {
	// MaxOps bounds elementary operations, in the same units as
	// Counter.Budget (the engines charge both in lockstep).
	MaxOps int64
	// MaxDepth bounds evaluator recursion depth (Enter/Exit pairs).
	MaxDepth int64
	// MaxNodeSet bounds the cardinality of intermediate node bags and
	// frontier lists at the points where they can grow past |D| (the
	// naive engine's bags) or are materialized per node (sparse
	// frontiers, streamed matches). Dense bitset frontiers are O(|D|)
	// by construction and are not counted.
	MaxNodeSet int
}

// guardPollOps is the operation cadence at which the guard polls its
// context: frequent enough that cancellation is prompt (well under a
// millisecond of engine work), rare enough that ctx.Err is off the hot
// path.
const guardPollOps = 256

// Guard enforces cooperative resource governance inside the evaluators:
// a context for cancellation and deadlines, an operation budget, a
// recursion-depth bound and a node-set cardinality bound. The engines
// consult it at the same per-visit points the Counter and the
// observability layer already instrument, so a nil *Guard — the default
// — costs one pointer check per site.
//
// All state is atomic: one Guard may be shared by the goroutines of a
// single evaluation (the parallel engine). Guards are single-use; build
// a fresh one per evaluation.
type Guard struct {
	ctx       context.Context
	limits    Limits
	ops       atomic.Int64
	depth     atomic.Int64
	sincePoll atomic.Int64
}

// NewGuard builds a guard from a context and limits. A nil ctx with zero
// limits yields a nil guard (no governance); a nil ctx with limits set
// uses context.Background.
func NewGuard(ctx context.Context, l Limits) *Guard {
	if ctx == nil && l == (Limits{}) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Guard{ctx: ctx, limits: l}
}

// Context returns the guard's context (context.Background for a nil
// guard).
func (g *Guard) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// Ops returns the operations charged to the guard so far.
func (g *Guard) Ops() int64 {
	if g == nil {
		return 0
	}
	return g.ops.Load()
}

// Check polls the context immediately, bypassing the cadence. Evaluation
// entry points call it once so an already-canceled context fails before
// any work happens.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return &CancelError{Cause: err}
	}
	return nil
}

// canceledOr resolves the precedence between a dead context and a
// tripped resource limit: cancellation wins. The context polls on a
// 256-op cadence, so a limit can trip while a cancel (or an expired
// batch deadline) is already pending; reporting the BudgetError then
// misattributes the stop to the query's own budget — under EvalBatch a
// canceled shared context would surface as per-query budget exhaustion.
// Every limit-error path routes through here so the verdict matches the
// actual cause.
func (g *Guard) canceledOr(budget error) error {
	if err := g.ctx.Err(); err != nil {
		return &CancelError{Cause: err}
	}
	return budget
}

// Step charges n operations against the budget and polls the context
// every guardPollOps operations. Engines call it wherever they charge
// the Counter, with the same n, so MaxOps and Counter.Budget are
// denominated identically.
func (g *Guard) Step(n int64) error {
	if g == nil {
		return nil
	}
	ops := g.ops.Add(n)
	if g.limits.MaxOps > 0 && ops > g.limits.MaxOps {
		return g.canceledOr(&BudgetError{Limit: "ops", Max: g.limits.MaxOps, Used: ops})
	}
	if g.sincePoll.Add(n) >= guardPollOps {
		g.sincePoll.Store(0)
		if err := g.ctx.Err(); err != nil {
			return &CancelError{Cause: err}
		}
	}
	return nil
}

// Enter records one level of evaluator recursion and checks the depth
// limit and (at the poll cadence) the context. On success the caller
// must pair it with Exit; on error the depth increment is rolled back,
// so an early return without Exit stays balanced.
func (g *Guard) Enter() error {
	if g == nil {
		return nil
	}
	d := g.depth.Add(1)
	if g.limits.MaxDepth > 0 && d > g.limits.MaxDepth {
		g.depth.Add(-1)
		return g.canceledOr(&BudgetError{Limit: "depth", Max: g.limits.MaxDepth, Used: d})
	}
	if g.sincePoll.Add(1) >= guardPollOps {
		g.sincePoll.Store(0)
		if err := g.ctx.Err(); err != nil {
			g.depth.Add(-1)
			return &CancelError{Cause: err}
		}
	}
	return nil
}

// Exit unwinds one Enter.
func (g *Guard) Exit() {
	if g != nil {
		g.depth.Add(-1)
	}
}

// Depth returns the current recursion depth.
func (g *Guard) Depth() int64 {
	if g == nil {
		return 0
	}
	return g.depth.Load()
}

// CheckNodeSet verifies an intermediate node-collection cardinality
// against the MaxNodeSet limit.
func (g *Guard) CheckNodeSet(card int) error {
	if g == nil {
		return nil
	}
	if g.limits.MaxNodeSet > 0 && card > g.limits.MaxNodeSet {
		return g.canceledOr(&BudgetError{Limit: "node-set", Max: int64(g.limits.MaxNodeSet), Used: int64(card)})
	}
	return nil
}
