package xpathcomplexity

import (
	"fmt"
	"strings"

	"xpathcomplexity/internal/fragment"
	"xpathcomplexity/internal/xpath/ast"
	"xpathcomplexity/internal/xpath/rewrite"
)

// Explain renders a human-readable account of what the engine knows about
// a compiled query: its canonical form, its place in the paper's Figure 1
// lattice, the complexity consequences, the features that drove the
// classification, applicable rewrites, and the execution strategies the
// facade would choose.
func (q *Query) Explain() string {
	var b strings.Builder
	cls := q.Class
	f := cls.Features
	fmt.Fprintf(&b, "query:      %s\n", q.Source)
	fmt.Fprintf(&b, "canonical:  %s\n", q.Expr.String())
	fmt.Fprintf(&b, "fragment:   %s\n", cls.Minimal)
	fmt.Fprintf(&b, "complexity: %s (combined); data complexity in L; query complexity in L\n",
		cls.Minimal.ComplexityClass())
	if cls.Minimal.Parallelizable() {
		b.WriteString("parallel:   yes — inside NC² via LOGCFL (Theorems 4.1/5.5/6.2)\n")
	} else {
		b.WriteString("parallel:   unlikely — the fragment is P-complete (Theorem 3.2/5.7)\n")
	}

	var drivers []string
	if f.NegationDepth > 0 {
		drivers = append(drivers, fmt.Sprintf("negation (depth %d)", f.NegationDepth))
	}
	if f.MaxPredicateSeq >= 2 {
		drivers = append(drivers, fmt.Sprintf("iterated predicates (%d in sequence)", f.MaxPredicateSeq))
	}
	if f.UsesPositionLast {
		drivers = append(drivers, "position()/last()")
	}
	if f.UsesArithmetic {
		drivers = append(drivers, fmt.Sprintf("arithmetic (depth %d)", f.ArithDepth))
	}
	if f.UsesStrings {
		drivers = append(drivers, "strings")
	}
	if len(f.ForbiddenFunctions) > 0 {
		drivers = append(drivers, "pXPath-excluded functions: "+strings.Join(f.ForbiddenFunctions, ", "))
	}
	if f.RelOpOnBooleans {
		drivers = append(drivers, "relational operator on booleans (encodes negation, Def. 6.1(3))")
	}
	if len(drivers) > 0 {
		fmt.Fprintf(&b, "drivers:    %s\n", strings.Join(drivers, "; "))
	}

	var rewrites []string
	if _, changed := rewrite.FoldIteratedPredicates(q.Expr); changed {
		rewrites = append(rewrites, "iterated predicates fold into conjunctions (Remark 5.2)")
	}
	if f.NegationDepth > 0 {
		if pushed := rewrite.PushNegation(q.Expr); ast.NegationDepth(pushed) < f.NegationDepth {
			rewrites = append(rewrites, fmt.Sprintf("de Morgan push-down shrinks negation depth %d → %d (Theorem 5.9 preprocessing)",
				f.NegationDepth, ast.NegationDepth(pushed)))
		}
	}
	if len(rewrites) > 0 {
		fmt.Fprintf(&b, "rewrites:   %s\n", strings.Join(rewrites, "; "))
	}

	fmt.Fprintf(&b, "evaluate:   %s engine\n", engineName(cls.RecommendEngine()))
	fmt.Fprintf(&b, "decide:     %s engine (Singleton-Success, Definition 5.3)\n",
		engineName(cls.RecommendDecisionEngine()))
	if _, err := q.streamProgram(); err == nil {
		b.WriteString("stream:     eligible — downward PF evaluates in one pass with O(depth) memory\n")
	}
	if prog, err := q.vmProgram(); err == nil {
		fmt.Fprintf(&b, "vm:         eligible — %d instructions, %d tests, %d labels, %d condition slots\n",
			len(prog.Code), len(prog.Tests), len(prog.Labels), prog.NumSlots)
		for _, line := range strings.Split(strings.TrimRight(prog.Disassemble(), "\n"), "\n") {
			b.WriteString("            | " + line + "\n")
		}
	}
	return b.String()
}

func engineName(e fragment.Engine) string { return string(e) }
