package enginetest

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenProfile selects which XPath fragment the query generator produces,
// mirroring the paper's Figure 1 lattice.
type GenProfile int

// Generator profiles, from smallest to largest fragment.
const (
	// GenPF: condition-free location paths (the PF fragment, Section 4).
	GenPF GenProfile = iota
	// GenPositiveCore: Core XPath without not() (Theorem 4.1).
	GenPositiveCore
	// GenCore: full Core XPath (Definition 2.5).
	GenCore
	// GenPWF: the positive Wadler fragment (Definition 5.1): single
	// predicates, position()/last(), arithmetic, no negation.
	GenPWF
	// GenFull: everything the engine supports, including negation,
	// iterated predicates, aggregates, string functions and
	// path-versus-literal comparisons.
	GenFull
	// GenPositional: the counting fragment — Core XPath shapes biased
	// toward countable axes, plus positional predicates: bare numbers,
	// [last()], and position()/last() comparisons against constants and
	// each other, iterated for renumbering coverage.
	GenPositional
)

// String names the profile.
func (p GenProfile) String() string {
	switch p {
	case GenPF:
		return "PF"
	case GenPositiveCore:
		return "positive-core"
	case GenCore:
		return "core"
	case GenPWF:
		return "pWF"
	case GenFull:
		return "full"
	case GenPositional:
		return "positional"
	default:
		return "unknown"
	}
}

// QueryGen generates random syntactically valid queries of a given
// fragment; used for cross-engine agreement testing and fragment-scaling
// benchmarks.
type QueryGen struct {
	rng     *rand.Rand
	profile GenProfile
	// Tags is the tag alphabet used in node tests.
	Tags []string
	// MaxDepth bounds expression nesting.
	MaxDepth int
	// MaxSteps bounds the number of steps per path.
	MaxSteps int
}

// NewQueryGen creates a generator with sensible defaults.
func NewQueryGen(rng *rand.Rand, profile GenProfile) *QueryGen {
	return &QueryGen{
		rng:      rng,
		profile:  profile,
		Tags:     []string{"a", "b", "c"},
		MaxDepth: 3,
		MaxSteps: 3,
	}
}

var genAxes = []string{
	"child", "descendant", "descendant-or-self", "parent",
	"ancestor", "ancestor-or-self", "self",
	"following-sibling", "preceding-sibling", "following", "preceding",
}

// genPositionalAxes are the axes positional predicates may sit on in
// the counting fragment: countable (child, attribute) and singleton
// (self, parent). The generator also mixes in descendant steps without
// positional predicates for realistic paths.
var genPositionalAxes = []string{"child", "child", "attribute", "self", "parent"}

// Query produces one random query string.
func (g *QueryGen) Query() string {
	return g.path(g.MaxDepth, g.rng.Intn(2) == 0)
}

func (g *QueryGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *QueryGen) nodeTest() string {
	if g.rng.Intn(4) == 0 {
		return "*"
	}
	return g.pick(g.Tags)
}

func (g *QueryGen) path(depth int, absolute bool) string {
	var b strings.Builder
	if absolute {
		b.WriteString("/")
	}
	steps := 1 + g.rng.Intn(g.MaxSteps)
	for i := 0; i < steps; i++ {
		if i > 0 {
			b.WriteString("/")
		}
		axis := g.pick(genAxes)
		if g.profile == GenPositional && g.rng.Intn(2) == 0 {
			axis = g.pick(genPositionalAxes)
		}
		b.WriteString(axis)
		b.WriteString("::")
		if axis == "attribute" {
			b.WriteString("*")
		} else {
			b.WriteString(g.nodeTest())
		}
		if g.profile != GenPF && depth > 0 {
			g.writePreds(&b, depth, axis)
		}
	}
	return b.String()
}

func (g *QueryGen) writePreds(b *strings.Builder, depth int, axis string) {
	if g.profile == GenPositional {
		// Positional predicates only go on counting-fragment axes;
		// iterated sequences exercise renumbering ([b][2] counts among
		// the b-having siblings).
		positionalOK := false
		switch axis {
		case "child", "attribute", "self", "parent":
			positionalOK = true
		}
		nPreds := g.rng.Intn(3)
		for i := 0; i < nPreds; i++ {
			if positionalOK && g.rng.Intn(2) == 0 {
				fmt.Fprintf(b, "[%s]", g.positionalPred())
			} else {
				fmt.Fprintf(b, "[%s]", g.condition(depth-1))
			}
		}
		return
	}
	nPreds := 0
	switch {
	case g.rng.Intn(3) == 0:
		nPreds = 1
	case g.profile == GenFull && g.rng.Intn(8) == 0:
		nPreds = 2 // iterated predicates: full profile only
	}
	for i := 0; i < nPreds; i++ {
		fmt.Fprintf(b, "[%s]", g.condition(depth-1))
	}
}

// positionalPred emits one counting-fragment positional predicate.
func (g *QueryGen) positionalPred() string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("%d", g.rng.Intn(4)) // bare number, 0 included
	case 1:
		return "last()"
	case 2:
		return fmt.Sprintf("position() %s %d", g.relop(), g.rng.Intn(4))
	case 3:
		return fmt.Sprintf("position() %s last()", g.relop())
	case 4:
		return fmt.Sprintf("%d %s last()", g.rng.Intn(4), g.relop())
	default:
		return fmt.Sprintf("not(position() %s %d)", g.relop(), 1+g.rng.Intn(3))
	}
}

func (g *QueryGen) condition(depth int) string {
	if depth <= 0 {
		return g.path(0, false)
	}
	type gen func() string
	options := []gen{
		func() string { return g.path(depth, g.rng.Intn(6) == 0) },
		func() string { return fmt.Sprintf("%s and %s", g.condition(depth-1), g.condition(depth-1)) },
		func() string { return fmt.Sprintf("%s or %s", g.condition(depth-1), g.condition(depth-1)) },
	}
	if g.profile == GenCore || g.profile == GenFull {
		options = append(options, func() string {
			return fmt.Sprintf("not(%s)", g.condition(depth-1))
		})
	}
	if g.profile == GenPWF || g.profile == GenFull {
		options = append(options,
			func() string { return fmt.Sprintf("position() %s %s", g.relop(), g.nexpr(depth-1)) },
			func() string { return fmt.Sprintf("%s %s last()", g.nexpr(depth-1), g.relop()) },
			func() string { return fmt.Sprintf("%s %s %s", g.nexpr(depth-1), g.relop(), g.nexpr(depth-1)) },
		)
	}
	if g.profile == GenFull {
		options = append(options,
			func() string { return fmt.Sprintf("count(%s) %s %d", g.path(0, false), g.relop(), g.rng.Intn(4)) },
			func() string { return fmt.Sprintf("contains(%s, '%s')", g.path(0, false), g.pick(g.Tags)) },
			func() string {
				if g.rng.Intn(4) == 0 {
					return fmt.Sprintf("%s %s %s", g.literal(), g.relop(), g.path(0, false))
				}
				return fmt.Sprintf("%s %s %s", g.path(0, false), g.relop(), g.literal())
			},
		)
	}
	return options[g.rng.Intn(len(options))]()
}

// literal emits a comparison constant: a string from the t0–t99 text
// vocabulary of xmltree.RandomDocument, so equality hits real text
// nodes, or a small number.
func (g *QueryGen) literal() string {
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(5))
	}
	return fmt.Sprintf("'t%d'", g.rng.Intn(100))
}

func (g *QueryGen) relop() string {
	return g.pick([]string{"=", "!=", "<", "<=", ">", ">="})
}

func (g *QueryGen) nexpr(depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%d", g.rng.Intn(5))
	}
	op := g.pick([]string{"+", "-", "*"})
	return fmt.Sprintf("(%s %s %s)", g.nexpr(depth-1), op, g.nexpr(depth-1))
}
