package xpathcomplexity

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xpathcomplexity/internal/eval/corelinear"
	"xpathcomplexity/internal/eval/enginetest"
	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/eval/nauxpda"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/vm"
	"xpathcomplexity/internal/xmltree"
)

// canonValue renders a value in a canonical byte-for-byte comparable
// form — enginetest.CanonValue, shared with the cached-equivalence
// harness so "byte-identical" means the same thing in both suites.
func canonValue(v Value) string { return enginetest.CanonValue(v) }

// nauxpdaOutside reports whether err is one of the fragment-rejection
// sentinels — the query is legitimately outside (bounded-negation)
// pXPath and the LOGCFL engine is excused from the vote.
func nauxpdaOutside(err error) bool {
	return errors.Is(err, nauxpda.ErrIteratedPredicates) ||
		errors.Is(err, nauxpda.ErrNegationDepth) ||
		errors.Is(err, nauxpda.ErrForbiddenFunction) ||
		errors.Is(err, nauxpda.ErrBooleanRelOp) ||
		errors.Is(err, nauxpda.ErrArithDepth)
}

// splitShape wraps generated queries in a conjunction with position()
// or last(), by itself, nested in another step's predicate, under not()
// and after an earlier predicate: the shapes the VM lowering splits
// into positional and position-free predicates.
func splitShape(rng *rand.Rand, gen *enginetest.QueryGen, i int) string {
	tag := gen.Tags[rng.Intn(len(gen.Tags))]
	k := 1 + rng.Intn(3)
	switch i % 4 {
	case 0:
		return fmt.Sprintf("//%s[%s and position() = last()]", tag, gen.Query())
	case 1:
		return fmt.Sprintf("//%s[position() < %d and %s]", tag, k, gen.Query())
	case 2:
		return fmt.Sprintf("//%s[not(%s[%s and position() = %d])]", tag, gen.Tags[rng.Intn(len(gen.Tags))], gen.Query(), k)
	default:
		return fmt.Sprintf("//%s[%s][last() > %d and %s and %s]", tag, gen.Query(), k, gen.Query(), gen.Query())
	}
}

// FuzzDifferentialEngines is the cross-engine differential suite: for a
// random document and random queries drawn from one of the five
// generator profiles, every applicable engine must produce the same
// value, and the warm path (plan cache hit + document index) must agree
// byte-for-byte with a cold compile evaluated with the index disabled.
//
// The seed corpus covers PF, positive Core, Core, pWF, full-XPath and
// positional profiles, so a plain `go test` run already exercises all
// engines on all profiles. Profiles 6-11 wrap the generated queries in
// positional conjunctions (splitShape), the predicates the VM lowering
// splits t[a and p] ⇒ t[p][a].
func FuzzDifferentialEngines(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(10))  // PF
	f.Add(int64(2), uint8(1), uint8(25))  // positive core
	f.Add(int64(3), uint8(2), uint8(40))  // core
	f.Add(int64(4), uint8(3), uint8(55))  // pWF
	f.Add(int64(5), uint8(4), uint8(70))  // full
	f.Add(int64(6), uint8(2), uint8(3))   // core on a tiny document
	f.Add(int64(7), uint8(4), uint8(200)) // full on a wider document
	f.Add(int64(8), uint8(5), uint8(45))  // positional (counting fragment)
	f.Add(int64(9), uint8(5), uint8(6))   // positional on a tiny document
	f.Add(int64(10), uint8(8), uint8(60)) // core split around position()/last()
	f.Add(int64(11), uint8(11), uint8(7)) // positional split on a tiny document
	f.Add(int64(12), uint8(6), uint8(33)) // PF split, nested and under not()

	f.Fuzz(func(t *testing.T, seed int64, profile, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		prof := enginetest.GenProfile(int(profile) % 6)
		split := int(profile)%12 >= 6
		d := xmltree.RandomDocument(rng, xmltree.GenConfig{
			Nodes:     10 + int(shape)%90,
			MaxFanout: 1 + int(shape)%5,
			Tags:      []string{"a", "b", "c"},
			TextProb:  0.2,
			AttrProb:  0.2,
		})
		ctx := RootContext(d)
		gen := enginetest.NewQueryGen(rng, prof)

		for i := 0; i < 8; i++ {
			qs := gen.Query()
			if split {
				qs = splitShape(rng, gen, i)
			}
			q, err := Compile(qs)
			if err != nil {
				t.Fatalf("generator produced invalid query %q: %v", qs, err)
			}

			type res struct {
				engine string
				v      Value
			}
			var got []res
			run := func(name string, opts EvalOptions) {
				v, err := q.EvalOptions(ctx, opts)
				if err != nil {
					t.Fatalf("profile %v query %q: engine %s failed: %v", prof, qs, name, err)
				}
				got = append(got, res{name, v})
			}

			// The naive engine is exponential (Section 3 of the paper), so
			// rare generated queries would stall the fuzz worker past its
			// hang limit; a generous operation budget keeps it in the vote
			// on everything else and excuses only runaway inputs.
			nctr := &Counter{Budget: 5_000_000}
			if v, err := q.EvalOptions(ctx, EvalOptions{Engine: EngineNaive, Counter: nctr}); err == nil {
				got = append(got, res{"naive", v})
			} else if !errors.Is(err, evalctx.ErrBudget) {
				t.Fatalf("profile %v query %q: engine naive failed: %v", prof, qs, err)
			}
			run("cvt-cold", EvalOptions{Engine: EngineCVT, DisableIndex: true})
			run("cvt-indexed", EvalOptions{Engine: EngineCVT})
			if corelinear.CheckCounting(q.Expr) == nil {
				run("corelinear-cold", EvalOptions{Engine: EngineCoreLinear, DisableIndex: true})
				run("corelinear-indexed", EvalOptions{Engine: EngineCoreLinear})
			}
			// The parallel engine serves strict Core XPath only — no
			// positional predicates.
			if corelinear.CheckCore(q.Expr) == nil {
				run("parallel", EvalOptions{Engine: EngineParallel, Workers: 2})
			}
			if _, err := q.vmProgram(); err == nil {
				run("vm-cold", EvalOptions{Engine: EngineVM, DisableIndex: true})
				run("vm-indexed", EvalOptions{Engine: EngineVM})
				// Fusion and the peephole pass are encoding choices, never
				// semantic ones: the superinstruction-free and unoptimized
				// bytecode must stay in the vote too.
				for _, alt := range []struct {
					name string
					opts vm.Options
				}{
					{"vm-unfused", vm.Options{DisableFusion: true}},
					{"vm-peephole-off", vm.Options{DisablePeephole: true}},
				} {
					prog, err := compileVM(q.Expr, alt.opts)
					if err != nil {
						t.Fatalf("query %q: default bytecode compiled but %s did not: %v", qs, alt.name, err)
					}
					v, err := prog.Run(ctx, vm.RunOptions{})
					if err != nil {
						t.Fatalf("query %q: %s run failed: %v", qs, alt.name, err)
					}
					got = append(got, res{alt.name, v})
				}
			}
			nauxpdaOpts := EvalOptions{Engine: EngineNAuxPDA, NegationBound: 8}
			nauxpdaAccepts := false
			if v, err := q.EvalOptions(ctx, nauxpdaOpts); err == nil {
				got = append(got, res{"nauxpda", v})
				nauxpdaAccepts = true
			} else if !nauxpdaOutside(err) {
				t.Fatalf("profile %v query %q: nauxpda failed outside the fragment checks: %v", prof, qs, err)
			}

			for _, r := range got[1:] {
				if !value.Equal(got[0].v, r.v) {
					t.Fatalf("profile %v query %q: %s = %s, but %s = %s",
						prof, qs, got[0].engine, canonValue(got[0].v), r.engine, canonValue(r.v))
				}
			}

			// Backend arm: the storage backend is an encoding choice, never
			// a semantic one. Re-evaluating on the columnar conversion of
			// the same document must reproduce the pointer-backed results
			// byte for byte (the backends share Ord numbering), engine by
			// engine, cold (index disabled) and indexed.
			cdoc := CompactDocument(d)
			if cdoc.Fingerprint() != d.Fingerprint() {
				t.Fatalf("columnar conversion changed the fingerprint: %x vs %x",
					cdoc.Fingerprint(), d.Fingerprint())
			}
			cctx := RootContext(cdoc)
			runBackendArm := func(name string, opts EvalOptions) {
				pv, perr := q.EvalOptions(ctx, opts)
				cv, cerr := q.EvalOptions(cctx, opts)
				if (perr == nil) != (cerr == nil) {
					t.Fatalf("profile %v query %q: engine %s backends disagree on error: pointer %v, columnar %v",
						prof, qs, name, perr, cerr)
				}
				if perr != nil {
					return
				}
				if pc, cc := canonValue(pv), canonValue(cv); pc != cc {
					t.Fatalf("profile %v query %q: engine %s pointer %s != columnar %s",
						prof, qs, name, pc, cc)
				}
			}
			runBackendArm("auto-cold", EvalOptions{DisableIndex: true})
			runBackendArm("cvt-indexed", EvalOptions{Engine: EngineCVT})
			if corelinear.CheckCounting(q.Expr) == nil {
				runBackendArm("corelinear-indexed", EvalOptions{Engine: EngineCoreLinear})
			}
			if _, err := q.vmProgram(); err == nil {
				runBackendArm("vm-indexed", EvalOptions{Engine: EngineVM})
			}

			// Warm path: plan-cache hit plus shared index must reproduce
			// the cold auto-engine result byte-for-byte.
			cold, err := q.EvalOptions(ctx, EvalOptions{DisableIndex: true})
			if err != nil {
				t.Fatalf("query %q: cold auto eval failed: %v", qs, err)
			}
			c, err := Prepare(qs)
			if err != nil {
				t.Fatalf("query %q: Prepare failed after Compile succeeded: %v", qs, err)
			}
			if _, err := c.Eval(ctx); err != nil { // populate caches
				t.Fatalf("query %q: prepared eval failed: %v", qs, err)
			}
			warm, err := c.Eval(ctx) // guaranteed warm: plan cached, index built
			if err != nil {
				t.Fatalf("query %q: warm eval failed: %v", qs, err)
			}
			if cw, cc := canonValue(warm), canonValue(cold); cw != cc {
				t.Fatalf("query %q: warm %s != cold %s", qs, cw, cc)
			}
			// The engine-bound plan (collapsed, folded) agrees with
			// the engines' vote on the query as written.
			if !value.Equal(got[0].v, cold) {
				t.Fatalf("query %q: plan %s != %s %s", qs, canonValue(cold), got[0].engine, canonValue(got[0].v))
			}
			// An engine pinned on the prepared plan runs that plan: the
			// rewrites must keep it inside the fragment nauxpda accepted
			// the query as written in.
			if nauxpdaAccepts {
				v, err := c.EvalOptions(ctx, nauxpdaOpts)
				if err != nil {
					t.Fatalf("query %q: nauxpda accepts the query but not its prepared plan: %v", qs, err)
				}
				if !value.Equal(got[0].v, v) {
					t.Fatalf("query %q: prepared plan on nauxpda %s != %s %s", qs, canonValue(v), got[0].engine, canonValue(got[0].v))
				}
			}

			// Cache arm: a result served through the shared result cache —
			// the populating miss, the warm hit, and N concurrent lookups
			// collapsed to one evaluation by singleflight — must reproduce
			// the cold result byte for byte.
			rc := NewResultCache(0, 0)
			copts := EvalOptions{Cache: rc, DisableIndex: true}
			first, err := q.EvalOptions(ctx, copts)
			if err != nil {
				t.Fatalf("query %q: cache-miss eval failed: %v", qs, err)
			}
			warmCached, err := q.EvalOptions(ctx, copts)
			if err != nil {
				t.Fatalf("query %q: cache-hit eval failed: %v", qs, err)
			}
			if cf, cc := canonValue(first), canonValue(cold); cf != cc {
				t.Fatalf("query %q: cache miss %s != cold %s", qs, cf, cc)
			}
			if cw, cc := canonValue(warmCached), canonValue(cold); cw != cc {
				t.Fatalf("query %q: cache hit %s != cold %s", qs, cw, cc)
			}
			if st := rc.Stats(); st.Hits == 0 {
				t.Fatalf("query %q: second cached eval was not a hit: %+v", qs, st)
			}
			rc2 := NewResultCache(0, 0)
			const flight = 4
			var wg sync.WaitGroup
			concurrent := make([]Value, flight)
			concurrentErr := make([]error, flight)
			for k := 0; k < flight; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					concurrent[k], concurrentErr[k] = q.EvalOptions(ctx, EvalOptions{Cache: rc2, DisableIndex: true})
				}(k)
			}
			wg.Wait()
			for k := 0; k < flight; k++ {
				if concurrentErr[k] != nil {
					t.Fatalf("query %q: concurrent cached eval failed: %v", qs, concurrentErr[k])
				}
				if ck, cc := canonValue(concurrent[k]), canonValue(cold); ck != cc {
					t.Fatalf("query %q: concurrent cached %s != cold %s", qs, ck, cc)
				}
			}
			if st := rc2.Stats(); st.Misses != 1 {
				t.Fatalf("query %q: %d concurrent identical lookups ran %d evaluations, want 1 (singleflight)",
					qs, flight, st.Misses)
			}

			// Observation must not perturb evaluation: the auto engine
			// with full tracing and metrics enabled must reproduce the
			// uninstrumented cold result byte for byte.
			sink := NewRingSink(512)
			m := NewMetrics()
			traced, err := q.EvalOptions(ctx, EvalOptions{
				DisableIndex: true, Trace: sink, Metrics: m, Counter: &Counter{},
			})
			if err != nil {
				t.Fatalf("query %q: traced eval failed: %v", qs, err)
			}
			if ct, cc := canonValue(traced), canonValue(cold); ct != cc {
				t.Fatalf("query %q: traced %s != plain %s", qs, ct, cc)
			}
			if len(sink.Events()) == 0 {
				t.Fatalf("query %q: tracer produced no events", qs)
			}

			// A guard with generous limits must be invisible: same bytes
			// as the unguarded cold run, on whichever engine the
			// EngineAuto plan binding picks (streaming included).
			guarded, err := q.EvalOptions(ctx, EvalOptions{
				DisableIndex: true,
				Context:      context.Background(),
				MaxOps:       50_000_000,
				MaxDepth:     1 << 20,
				MaxNodeSet:   1 << 20,
			})
			if err != nil {
				t.Fatalf("query %q: guarded eval failed: %v", qs, err)
			}
			if cg, cc := canonValue(guarded), canonValue(cold); cg != cc {
				t.Fatalf("query %q: guarded %s != unguarded %s", qs, cg, cc)
			}

			// A tiny budget must produce either the correct complete
			// value (trivial queries legitimately finish within one op
			// charge batch) or a typed resource error with no partial
			// result — from every engine.
			for _, eng := range []Engine{EngineAuto, EngineNaive, EngineCVT, EngineCoreLinear, EngineVM, EngineNAuxPDA} {
				if eng == EngineCoreLinear && corelinear.CheckCounting(q.Expr) != nil {
					continue
				}
				if eng == EngineVM {
					if _, err := q.vmProgram(); err != nil {
						continue
					}
				}
				v, err := q.EvalOptions(ctx, EvalOptions{
					Engine: eng, MaxOps: 1, NegationBound: 8, DisableIndex: true,
				})
				if err == nil {
					if cv, cc := canonValue(v), canonValue(cold); cv != cc {
						t.Fatalf("query %q: engine %s under MaxOps=1 returned wrong value %s (want %s)",
							qs, eng, cv, cc)
					}
					continue
				}
				if eng == EngineNAuxPDA && nauxpdaOutside(err) {
					continue
				}
				if !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("query %q: engine %s under MaxOps=1 failed with untyped error: %v", qs, eng, err)
				}
				if v != nil {
					t.Fatalf("query %q: engine %s returned partial value %s alongside budget error",
						qs, eng, canonValue(v))
				}
			}
		}
	})
}
