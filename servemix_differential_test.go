package xpathcomplexity

import (
	"math/rand"
	"regexp"
	"testing"

	"xpathcomplexity/internal/workload"
	"xpathcomplexity/internal/xpath/ast"
)

// mixConstant matches a serving-mix family's comparison: path operand,
// relational operator, string or number literal.
var mixConstant = regexp.MustCompile(`(\w+) (!=|<=|>=|=|<|>) ('[^']*'|-?[0-9.]+)`)

// mixVariants sweeps a serving-mix query's comparison: every relational
// operator against a spread of constants (values present in auction
// documents, absent ones, a non-number string, a fraction and a
// negative), each also stated with the literal on the left. Queries
// without a comparison come back unchanged.
func mixVariants(text string) []string {
	m := mixConstant.FindStringSubmatchIndex(text)
	if m == nil {
		return []string{text}
	}
	path := text[m[2]:m[3]]
	lits := []string{"0", "1", "3", "2.5", "-1", "50", "100", "150", "1000", "'Vienna'", "'Leipzig'", "'Nowhere'", "''", "'7'"}
	ops := []ast.BinOp{ast.OpEq, ast.OpNeq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe}
	mirror := map[ast.BinOp]ast.BinOp{
		ast.OpEq: ast.OpEq, ast.OpNeq: ast.OpNeq, ast.OpLt: ast.OpGt,
		ast.OpLe: ast.OpGe, ast.OpGt: ast.OpLt, ast.OpGe: ast.OpLe,
	}
	var out []string
	for _, op := range ops {
		for _, lit := range lits {
			for _, cmp := range []string{
				path + " " + op.String() + " " + lit,
				lit + " " + mirror[op].String() + " " + path,
			} {
				out = append(out, text[:m[0]]+cmp+text[m[1]:])
			}
		}
	}
	return out
}

// TestServeMixDifferential is the serving mix's differential wall: every
// workload.ServeMix family, with its comparison swept over operators
// and constants, must bind to the bytecode VM and answer byte-identically
// under the plan binding, the VM (indexed and cold), cvt and the naive
// engine, on auction documents of both storage backends.
func TestServeMixDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var docs []*Document
	for _, cfg := range []workload.Config{
		{People: 6, Items: 8, MaxBids: 3},
		{People: 14, Items: 24, MaxBids: 5},
	} {
		d := workload.Auction(rng, cfg)
		docs = append(docs, d, CompactDocument(d))
	}
	engines := []struct {
		name string
		opts EvalOptions
	}{
		{"auto", EvalOptions{}},
		{"vm", EvalOptions{Engine: EngineVM}},
		{"vm-cold", EvalOptions{Engine: EngineVM, DisableIndex: true}},
		{"cvt", EvalOptions{Engine: EngineCVT}},
		{"naive", EvalOptions{Engine: EngineNaive}},
	}
	queries := 0
	for _, fam := range workload.ServeMix() {
		for _, text := range mixVariants(fam.Text) {
			c, err := Prepare(text)
			if err != nil {
				t.Fatalf("%s variant %q: %v", fam.Name, text, err)
			}
			if c.Bound != EngineVM {
				_, verr := c.VMProgram()
				t.Fatalf("%s variant %q binds %s, want vm: %v", fam.Name, text, c.Bound, verr)
			}
			queries++
			for di, d := range docs {
				ctx := RootContext(d)
				var want string
				for i, e := range engines {
					v, err := c.EvalOptions(ctx, e.opts)
					if err != nil {
						t.Fatalf("%s %q on doc %d: %s: %v", fam.Name, text, di, e.name, err)
					}
					got := canonValue(v)
					if i == 0 {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("%s %q on doc %d: auto = %s, %s = %s", fam.Name, text, di, want, e.name, got)
					}
				}
				if di%2 == 1 {
					// The columnar conversion shares Ord numbering with its
					// pointer original, so their answers match byte for byte.
					prev, err := c.EvalOptions(RootContext(docs[di-1]), EvalOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if p := canonValue(prev); p != want {
						t.Fatalf("%s %q: pointer %s != columnar %s", fam.Name, text, p, want)
					}
				}
			}
		}
	}
	if want := len(workload.ServeMix()); queries <= want {
		t.Fatalf("swept %d queries over %d families: the comparison sweep matched nothing", queries, want)
	}
	t.Logf("%d queries × %d documents × %d engines agree", queries, len(docs), len(engines))
}
