package enginetest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/qcache"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/parser"
)

// CanonValue renders a value in a canonical byte-for-byte comparable
// form: node sets as ordinal lists, numbers through the XPath number
// formatting (so NaN and -0 are stable). The differential fuzz suite and
// the cached-equivalence harness compare engine outputs through it, so
// "byte-identical" means the same thing everywhere.
func CanonValue(v value.Value) string {
	switch x := v.(type) {
	case value.NodeSet:
		var b strings.Builder
		b.WriteString("nodeset[")
		for i, n := range x {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", n.Ord)
		}
		b.WriteByte(']')
		return b.String()
	case value.Boolean:
		return fmt.Sprintf("boolean[%v]", bool(x))
	case value.Number:
		return "number[" + value.FormatNumber(float64(x)) + "]"
	case value.String:
		return fmt.Sprintf("string[%q]", string(x))
	default:
		return fmt.Sprintf("unknown[%v]", v)
	}
}

// CacheKey builds the result-cache key the public API would use for this
// (document, query, engine, context) combination; the harness and the
// engine tests key the cache exactly like production code does.
func CacheKey(d *xmltree.Document, query, engineName string, ctx evalctx.Context) qcache.Key {
	return qcache.Key{
		DocFP:   d.Fingerprint(),
		Plan:    query,
		Engine:  engineName,
		CtxOrd:  int(ctx.Node.Ord),
		CtxPos:  ctx.Pos,
		CtxSize: ctx.Size,
	}
}

// RunCachedEquivalence asserts that serving an engine's results through
// the shared result cache is observationally invisible: for the
// conformance corpus and for seeded random (document, query) pairs, the
// cold result, the caching miss and the subsequent hit must render to
// identical bytes; an entry must survive eviction only as a correct
// re-evaluation; and a document content change must never be served a
// stale entry. Queries the engine rejects cold (fragment limits) are
// skipped — conformance itself is Run's job.
//
// Every engine test calls this with its own name, so the cache's keying,
// copy-on-hit and invalidation are proven against all evaluation
// strategies, not just the default one.
func RunCachedEquivalence(t *testing.T, engineName string, engine Engine, caps Caps, profile GenProfile) {
	t.Helper()

	// cachedPair runs the query cold, then twice through the cache, and
	// requires all three renderings identical with exactly one cache-side
	// evaluation. Returns false when the engine rejects the query cold.
	cachedPair := func(t *testing.T, c *qcache.Cache, d *xmltree.Document, ctx evalctx.Context, query string) bool {
		t.Helper()
		expr, err := parser.Parse(query)
		if err != nil {
			t.Fatalf("query %q: parse: %v", query, err)
		}
		cold, err := engine(expr, ctx)
		if err != nil {
			return false
		}
		evals := 0
		key := CacheKey(d, query, engineName, ctx)
		miss, err := c.Do(key, d, nil, func() (value.Value, error) {
			evals++
			return engine(expr, ctx)
		})
		if err != nil {
			t.Fatalf("query %q: cached miss failed after cold success: %v", query, err)
		}
		hit, err := c.Do(key, d, nil, func() (value.Value, error) {
			evals++
			return engine(expr, ctx)
		})
		if err != nil {
			t.Fatalf("query %q: cached hit failed: %v", query, err)
		}
		if evals != 1 {
			t.Fatalf("query %q: cache ran %d evaluations for a miss+hit pair, want 1", query, evals)
		}
		cc, cm, ch := CanonValue(cold), CanonValue(miss), CanonValue(hit)
		if cm != cc {
			t.Fatalf("query %q: cached miss %s != cold %s", query, cm, cc)
		}
		if ch != cc {
			t.Fatalf("query %q: cached hit %s != cold %s", query, ch, cc)
		}
		return true
	}

	t.Run("corpus", func(t *testing.T) {
		c := qcache.New(0, 0)
		covered := 0
		for _, tc := range Cases {
			if skip, _ := needsMissing(tc.Need, caps); skip {
				continue
			}
			doc := MustDoc(tc.Doc)
			ctx := evalctx.Root(doc)
			if tc.CtxID != "" {
				n := NodeByID(doc, tc.CtxID)
				if n == nil {
					t.Fatalf("case %s: no node with id %q", tc.Name, tc.CtxID)
				}
				ctx = evalctx.At(n)
			}
			if c.Contains(CacheKey(doc, tc.Query, engineName, ctx)) {
				// A corpus duplicate (same doc/query/context) is already
				// cached; the miss+hit accounting below assumes a cold key.
				continue
			}
			if cachedPair(t, c, doc, ctx, tc.Query) {
				covered++
			}
		}
		if covered < len(Cases)/3 {
			t.Fatalf("only %d of %d corpus cases reached the cache; the harness is not testing anything", covered, len(Cases))
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := xmltree.RandomDocument(rng, xmltree.GenConfig{
				Nodes:     50 + int(seed)*10,
				MaxFanout: 3,
				Tags:      []string{"a", "b", "c"},
				TextProb:  0.2,
				AttrProb:  0.2,
			})
			ctx := evalctx.Root(d)
			gen := NewQueryGen(rng, profile)
			c := qcache.New(0, 0)
			for i := 0; i < 12; i++ {
				cachedPair(t, c, d, ctx, gen.Query())
			}
		}
	})

	t.Run("hit-after-evict", func(t *testing.T) {
		// A capacity-1 cache alternating two queries must evict on every
		// admission; the re-evaluations it forces still agree with cold.
		d := MustDoc("tree")
		ctx := evalctx.Root(d)
		c := qcache.New(1, 0)
		q1, q2 := "/descendant::a", "/descendant::b"
		for round := 0; round < 3; round++ {
			if !cachedPair(t, c, d, ctx, q1) || !cachedPair(t, c, d, ctx, q2) {
				t.Fatalf("engine rejected the plain PF fixture queries")
			}
		}
		if st := c.Stats(); st.Evictions == 0 {
			t.Fatalf("capacity-1 cache never evicted: %+v", st)
		}
	})

	t.Run("fingerprint-change-invalidates", func(t *testing.T) {
		d1 := MustDoc("tree")
		ctx1 := evalctx.Root(d1)
		c := qcache.New(0, 0)
		const query = "/descendant::b"
		if !cachedPair(t, c, d1, ctx1, query) {
			t.Fatalf("engine rejected the PF fixture query")
		}

		// Mutate a copy through the single rebuild entry point: the new
		// fingerprint keys past the old entry, so the cache must
		// re-evaluate and agree with a cold run on the new content.
		cp := d1.Copy()
		xmltree.AppendChild(cp.Root.Children[0], xmltree.Elem("b"))
		d2 := xmltree.NewDocument(cp.Root.Children...)
		if d2.Fingerprint() == d1.Fingerprint() {
			t.Fatal("fixture: content change kept the fingerprint")
		}
		expr, err := parser.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		ctx2 := evalctx.Root(d2)
		cold2, err := engine(expr, ctx2)
		if err != nil {
			t.Fatalf("cold eval on mutated document: %v", err)
		}
		evals := 0
		got2, err := c.Do(CacheKey(d2, query, engineName, ctx2), d2, nil, func() (value.Value, error) {
			evals++
			return engine(expr, ctx2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if evals != 1 {
			t.Fatal("mutated document was served the stale entry")
		}
		if cg, cc := CanonValue(got2), CanonValue(cold2); cg != cc {
			t.Fatalf("mutated document: cached %s != cold %s", cg, cc)
		}
		if c1, c2 := CanonValue(cold2), CanonValue(mustEval(t, engine, expr, ctx1)); c1 == c2 {
			t.Fatalf("fixture: mutation did not change the query result (%s)", c1)
		}

		// Explicit invalidation drops the old document's entries too.
		if n := c.InvalidateDocument(d1.Fingerprint()); n == 0 {
			t.Fatal("InvalidateDocument dropped nothing")
		}
		evals = 0
		if _, err := c.Do(CacheKey(d1, query, engineName, ctx1), d1, nil, func() (value.Value, error) {
			evals++
			return engine(expr, ctx1)
		}); err != nil {
			t.Fatal(err)
		}
		if evals != 1 {
			t.Fatal("entry survived explicit invalidation")
		}
	})
}

func mustEval(t *testing.T, engine Engine, expr ast.Expr, ctx evalctx.Context) value.Value {
	t.Helper()
	v, err := engine(expr, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
