package evalctx

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilGuardIsInert(t *testing.T) {
	var g *Guard
	if err := g.Check(); err != nil {
		t.Errorf("nil.Check() = %v", err)
	}
	if err := g.Step(1 << 40); err != nil {
		t.Errorf("nil.Step() = %v", err)
	}
	if err := g.Enter(); err != nil {
		t.Errorf("nil.Enter() = %v", err)
	}
	g.Exit()
	if err := g.CheckNodeSet(1 << 30); err != nil {
		t.Errorf("nil.CheckNodeSet() = %v", err)
	}
	if g.Ops() != 0 || g.Depth() != 0 {
		t.Errorf("nil guard reports ops=%d depth=%d", g.Ops(), g.Depth())
	}
	if g.Context() == nil {
		t.Error("nil.Context() should be context.Background, not nil")
	}
}

func TestNewGuardNilCases(t *testing.T) {
	if g := NewGuard(nil, Limits{}); g != nil {
		t.Error("NewGuard(nil, zero limits) should be nil (no governance)")
	}
	g := NewGuard(nil, Limits{MaxOps: 10})
	if g == nil {
		t.Fatal("NewGuard(nil, limits) should build a guard")
	}
	if g.Context() == nil || g.Context().Err() != nil {
		t.Error("limits-only guard should run on a live background context")
	}
	if g2 := NewGuard(context.Background(), Limits{}); g2 == nil {
		t.Error("NewGuard(ctx, zero limits) should build a cancellation-only guard")
	}
}

func TestGuardOpsBudget(t *testing.T) {
	g := NewGuard(nil, Limits{MaxOps: 100})
	if err := g.Step(100); err != nil {
		t.Fatalf("Step to exactly the limit should pass: %v", err)
	}
	err := g.Step(1)
	if err == nil {
		t.Fatal("Step past MaxOps should fail")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("ops error should match ErrBudgetExceeded: %v", err)
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("ops error should match legacy ErrBudget: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "ops" || be.Max != 100 || be.Used != 101 {
		t.Errorf("unexpected BudgetError: %+v", be)
	}
	if g.Ops() != 101 {
		t.Errorf("Ops() = %d, want 101", g.Ops())
	}
}

func TestGuardDepthLimitAndRollback(t *testing.T) {
	g := NewGuard(nil, Limits{MaxDepth: 3})
	for i := 0; i < 3; i++ {
		if err := g.Enter(); err != nil {
			t.Fatalf("Enter %d: %v", i, err)
		}
	}
	err := g.Enter()
	if err == nil {
		t.Fatal("fourth Enter should exceed MaxDepth=3")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "depth" {
		t.Errorf("depth error = %v, want BudgetError{Limit: depth}", err)
	}
	// The failed Enter must roll its increment back: the caller never
	// pairs a failed Enter with Exit.
	if g.Depth() != 3 {
		t.Errorf("Depth() after failed Enter = %d, want 3", g.Depth())
	}
	g.Exit()
	g.Exit()
	g.Exit()
	if g.Depth() != 0 {
		t.Errorf("Depth() after unwinding = %d, want 0", g.Depth())
	}
	if err := g.Enter(); err != nil {
		t.Errorf("Enter after unwind should pass: %v", err)
	}
}

func TestGuardCancellationPollCadence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGuard(ctx, Limits{})
	if err := g.Step(1); err != nil {
		t.Fatalf("Step on live context: %v", err)
	}
	cancel()
	// The context is polled every guardPollOps charged operations, so at
	// most ~2*guardPollOps single-op steps pass before the cancel lands.
	var err error
	for i := 0; i < 2*guardPollOps; i++ {
		if err = g.Step(1); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("cancelation never observed within poll cadence")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("cancel error should match ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancel error should unwrap to context.Canceled: %v", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Error("cancel error must not match ErrBudgetExceeded")
	}
	// Check bypasses the cadence entirely.
	if err := g.Check(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Check() on canceled context = %v, want ErrCanceled", err)
	}
}

func TestGuardDeadlineErrorShape(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := NewGuard(ctx, Limits{}).Check()
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("deadline error should match ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error should unwrap to context.DeadlineExceeded: %v", err)
	}
}

func TestGuardCheckNodeSet(t *testing.T) {
	g := NewGuard(nil, Limits{MaxNodeSet: 10})
	if err := g.CheckNodeSet(10); err != nil {
		t.Errorf("cardinality at the limit should pass: %v", err)
	}
	err := g.CheckNodeSet(11)
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "node-set" || be.Used != 11 {
		t.Errorf("CheckNodeSet(11) = %v, want BudgetError{Limit: node-set}", err)
	}
	// Unlimited guard never trips.
	if err := NewGuard(context.Background(), Limits{}).CheckNodeSet(1 << 30); err != nil {
		t.Errorf("unlimited CheckNodeSet = %v", err)
	}
}

func TestIsResourceError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&CancelError{Cause: context.Canceled}, true},
		{&CancelError{Cause: context.DeadlineExceeded}, true},
		{&BudgetError{Limit: "ops"}, true},
		{ErrBudget, true},
		{errors.New("unsupported expression"), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := IsResourceError(tc.err); got != tc.want {
			t.Errorf("IsResourceError(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestGuardCancellationBeatsBudget pins the error-precedence contract:
// when the context is already dead at the moment a resource limit
// trips, the guard reports the cancellation, not the budget. The poll
// cadence makes the race real — a limit can exceed between polls while
// a cancel is pending — and under EvalBatch a shared canceled context
// must never surface as per-query budget exhaustion.
func TestGuardCancellationBeatsBudget(t *testing.T) {
	newDead := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}

	t.Run("step", func(t *testing.T) {
		g := NewGuard(newDead(), Limits{MaxOps: 1})
		err := g.Step(5) // trips MaxOps on a dead context
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Step over budget on canceled context = %v, want ErrCanceled", err)
		}
		if errors.Is(err, ErrBudgetExceeded) {
			t.Error("error must not also match ErrBudgetExceeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error should unwrap to context.Canceled: %v", err)
		}
	})

	t.Run("enter", func(t *testing.T) {
		g := NewGuard(newDead(), Limits{MaxDepth: 1})
		if err := g.Enter(); err != nil {
			t.Fatalf("first Enter: %v", err)
		}
		err := g.Enter() // trips MaxDepth on a dead context
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Enter over depth on canceled context = %v, want ErrCanceled", err)
		}
		if got := g.Depth(); got != 1 {
			t.Errorf("depth after rejected Enter = %d, want 1 (rollback)", got)
		}
	})

	t.Run("node-set", func(t *testing.T) {
		g := NewGuard(newDead(), Limits{MaxNodeSet: 1})
		err := g.CheckNodeSet(2)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("CheckNodeSet over limit on canceled context = %v, want ErrCanceled", err)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		defer cancel()
		<-ctx.Done()
		err := NewGuard(ctx, Limits{MaxOps: 1}).Step(5)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Step over budget past deadline = %v, want ErrCanceled unwrapping to DeadlineExceeded", err)
		}
	})

	// A live context keeps the budget verdict untouched.
	t.Run("live-context-still-budget", func(t *testing.T) {
		g := NewGuard(context.Background(), Limits{MaxOps: 1})
		err := g.Step(5)
		var be *BudgetError
		if !errors.As(err, &be) || be.Limit != "ops" {
			t.Fatalf("Step over budget on live context = %v, want BudgetError{ops}", err)
		}
	})
}

// TestGuardDeadline pins the deadline limit: it is polled on the op
// cadence (and by Check), and its expiry is the same *CancelError a
// context deadline produces — matching ErrCanceled and unwrapping to
// context.DeadlineExceeded — with no context or timer behind it.
func TestGuardDeadline(t *testing.T) {
	if g := NewGuard(nil, Limits{Deadline: time.Now().Add(time.Hour)}); g == nil {
		t.Fatal("a deadline alone should build a guard")
	} else if err := g.Check(); err != nil {
		t.Fatalf("live deadline: Check() = %v", err)
	}

	g := NewGuard(nil, Limits{Deadline: time.Now().Add(-time.Millisecond)})
	err := g.Check()
	var ce *CancelError
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &ce) {
		t.Fatalf("expired deadline: Check() = %v, want a *CancelError matching ErrCanceled and DeadlineExceeded", err)
	}

	// Step polls only every guardPollOps operations.
	g = NewGuard(nil, Limits{Deadline: time.Now().Add(-time.Millisecond)})
	if err := g.Step(guardPollOps - 1); err != nil {
		t.Fatalf("Step below the poll cadence should not read the clock: %v", err)
	}
	if err := g.Step(1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Step at the poll cadence past the deadline = %v", err)
	}
	g = NewGuard(nil, Limits{Deadline: time.Now().Add(-time.Millisecond)})
	for i := 0; i < guardPollOps-1; i++ {
		if err := g.Enter(); err != nil {
			t.Fatalf("Enter %d below the poll cadence: %v", i, err)
		}
	}
	if err := g.Enter(); !errors.Is(err, context.DeadlineExceeded) || g.Depth() != guardPollOps-1 {
		t.Fatalf("Enter at the poll cadence past the deadline = %v (depth %d, want rolled back to %d)",
			err, g.Depth(), guardPollOps-1)
	}

	// A passed deadline wins over a tripped budget, like a dead context.
	g = NewGuard(nil, Limits{MaxOps: 1, Deadline: time.Now().Add(-time.Millisecond)})
	if err := g.Step(2); !errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired deadline with a tripped budget = %v, want the cancellation", err)
	}

	// A canceled context is reported before a passed deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Canceled(ctx, time.Now().Add(-time.Millisecond)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Canceled(dead ctx, passed deadline) = %v, want context.Canceled", err)
	}
	if err := Canceled(nil, time.Time{}); err != nil {
		t.Fatalf("Canceled(nil, zero) = %v", err)
	}
}
