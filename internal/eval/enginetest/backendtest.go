package enginetest

import (
	"math/rand"
	"testing"

	"xpathcomplexity/internal/eval/evalctx"
	"xpathcomplexity/internal/qcache"
	"xpathcomplexity/internal/value"
	"xpathcomplexity/internal/xmltree"
	"xpathcomplexity/internal/xpath/parser"
)

// MustDocBackend parses a corpus document by key into the named storage
// backend, panicking on unknown keys or backends.
func MustDocBackend(key, backend string) *xmltree.Document {
	d := MustDoc(key)
	switch backend {
	case "", xmltree.BackendPointer:
		return d
	case xmltree.BackendColumnar:
		return xmltree.Compact(d)
	default:
		panic("enginetest: unknown backend " + backend)
	}
}

// RunBackend executes every conformance case the engine's capabilities
// allow, over documents held in the named storage backend. RunBackend
// with BackendPointer is Run; every engine runs it for every backend so
// the conformance matrix is (engine × backend), not per-engine only.
func RunBackend(t *testing.T, engine Engine, caps Caps, backend string) {
	t.Helper()
	for _, tc := range Cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			if skip, why := needsMissing(tc.Need, caps); skip {
				t.Skipf("engine lacks %s", why)
			}
			doc := MustDocBackend(tc.Doc, backend)
			if got := doc.Backend(); got != backend && !(backend == "" && got == xmltree.BackendPointer) {
				t.Fatalf("fixture document reports backend %q, want %q", got, backend)
			}
			RunCaseDoc(t, engine, tc, doc)
		})
	}
}

// RunBackendEquivalence asserts that the storage backend is
// observationally invisible to an engine: over the conformance corpus
// and seeded random (document, query) pairs, evaluating on a pointer-
// backed document and on its columnar conversion must render to
// byte-identical canonical results — cold (fresh document, index not
// yet built) and warm (repeat evaluation over the cached index) — and
// must agree on errors. It also pins the cross-backend cache seam: the
// backends share a content fingerprint, so a result cached from the
// pointer parse must be served as a hit to the columnar document and
// still render identically.
//
// Every engine test calls this with its own name, so backend
// equivalence is proven against all evaluation strategies.
func RunBackendEquivalence(t *testing.T, engineName string, engine Engine, caps Caps, profile GenProfile) {
	t.Helper()

	// comparePair evaluates one query on both backends, cold and warm,
	// and requires byte-identical renderings (or identical rejection).
	// ctxOf locates the context node per document instance.
	comparePair := func(t *testing.T, query string, pd, cd *xmltree.Document, ctxOf func(*xmltree.Document) evalctx.Context) {
		t.Helper()
		if pd.Fingerprint() != cd.Fingerprint() {
			t.Fatalf("query %q: backends disagree on fingerprint: %x vs %x",
				query, pd.Fingerprint(), cd.Fingerprint())
		}
		expr, err := parser.Parse(query)
		if err != nil {
			t.Fatalf("query %q: parse: %v", query, err)
		}
		pv, perr := engine(expr, ctxOf(pd))
		cv, cerr := engine(expr, ctxOf(cd))
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("query %q: backends disagree on error: pointer %v, columnar %v", query, perr, cerr)
		}
		if perr != nil {
			return
		}
		pc, cc := CanonValue(pv), CanonValue(cv)
		if pc != cc {
			t.Fatalf("query %q: cold results differ:\n  pointer:  %s\n  columnar: %s", query, pc, cc)
		}
		// Warm arm: both documents now carry a built index and warmed
		// caches; results must not drift.
		pw, perr := engine(expr, ctxOf(pd))
		cw, cerr := engine(expr, ctxOf(cd))
		if perr != nil || cerr != nil {
			t.Fatalf("query %q: warm evaluation failed after cold success: pointer %v, columnar %v", query, perr, cerr)
		}
		if pwc, cwc := CanonValue(pw), CanonValue(cw); pwc != pc || cwc != pc {
			t.Fatalf("query %q: warm results drifted:\n  cold:          %s\n  pointer warm:  %s\n  columnar warm: %s",
				query, pc, pwc, cwc)
		}
	}

	t.Run("corpus", func(t *testing.T) {
		for _, tc := range Cases {
			if skip, _ := needsMissing(tc.Need, caps); skip {
				continue
			}
			pd := MustDoc(tc.Doc)
			cd := xmltree.Compact(MustDoc(tc.Doc))
			tc := tc
			comparePair(t, tc.Query, pd, cd, func(d *xmltree.Document) evalctx.Context {
				if tc.CtxID == "" {
					return evalctx.Root(d)
				}
				n := NodeByID(d, tc.CtxID)
				if n == nil {
					t.Fatalf("case %s: no node with id %q", tc.Name, tc.CtxID)
				}
				return evalctx.At(n)
			})
			// The columnar arm must also satisfy the case expectation
			// itself, not merely agree with the pointer arm.
			RunCaseDoc(t, engine, tc, cd)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pd := xmltree.RandomDocument(rng, xmltree.GenConfig{
				Nodes:     60 + int(seed)*15,
				MaxFanout: 4,
				Tags:      []string{"a", "b", "c"},
				TextProb:  0.2,
				AttrProb:  0.2,
			})
			cd := xmltree.Compact(pd)
			gen := NewQueryGen(rng, profile)
			for i := 0; i < 16; i++ {
				query := gen.Query()
				// Alternate the context between the root and a deterministic
				// interior node so relative paths and reverse axes get
				// non-root contexts on both backends.
				ordCtx := -1
				if i%3 == 1 && len(pd.Nodes) > 2 {
					ordCtx = 1 + (i*7)%(len(pd.Nodes)-1)
					if pd.Nodes[ordCtx].Type == xmltree.AttributeNode {
						ordCtx = int(pd.Nodes[ordCtx].Parent.Ord)
					}
				}
				comparePair(t, query, pd, cd, func(d *xmltree.Document) evalctx.Context {
					if ordCtx < 0 {
						return evalctx.Root(d)
					}
					return evalctx.At(d.Nodes[ordCtx])
				})
			}
		}
	})

	t.Run("cache-cross-backend", func(t *testing.T) {
		// A result cached from the pointer parse must be a hit for the
		// columnar document (shared fingerprint) and render identically
		// after the cache's cross-instance ord remap.
		pd := MustDoc("library")
		cd := xmltree.Compact(MustDoc("library"))
		c := qcache.New(0, 0)
		queries := []string{"/descendant::book", "//book[note]", "//title"}
		for _, query := range queries {
			expr, err := parser.Parse(query)
			if err != nil {
				t.Fatal(err)
			}
			pctx, cctx := evalctx.Root(pd), evalctx.Root(cd)
			evals := 0
			miss, err := c.Do(CacheKey(pd, query, engineName, pctx), pd, nil, func() (value.Value, error) {
				evals++
				return engine(expr, pctx)
			})
			if err != nil {
				t.Fatalf("query %q: %v", query, err)
			}
			hit, err := c.Do(CacheKey(cd, query, engineName, cctx), cd, nil, func() (value.Value, error) {
				evals++
				return engine(expr, cctx)
			})
			if err != nil {
				t.Fatalf("query %q: %v", query, err)
			}
			if evals != 1 {
				t.Fatalf("query %q: columnar document missed the entry cached from the pointer parse (%d evals)", query, evals)
			}
			if mc, hc := CanonValue(miss), CanonValue(hit); mc != hc {
				t.Fatalf("query %q: cross-backend hit %s != miss %s", query, hc, mc)
			}
			// The hit's nodes must belong to the requesting document.
			if ns, ok := hit.(value.NodeSet); ok {
				for _, n := range ns {
					if n.Document() != cd {
						t.Fatalf("query %q: cross-backend hit returned a node of the other document instance", query)
					}
				}
			}
		}
	})
}
