// Package streaming implements a single-pass, constant-memory-per-depth
// evaluator for the downward fragment of PF: absolute location paths over
// the child and descendant(-or-self) axes with name, '*', text() and
// node() tests, and no predicates.
//
// The paper places PF in NL — evaluation needs only logarithmic *space* —
// and this engine is the practical face of that observation: it never
// materializes the document tree. The query compiles to a tiny NFA whose
// active-state sets (one bitset per open element) live on a stack of
// depth equal to the document's nesting depth, so memory is
// O(depth · |Q|/64) words regardless of document size. Matches are
// reported as they stream past.
//
// Downward-only is a real restriction (upward and sideways axes need
// either buffering or multiple passes); the engine rejects anything else
// with ErrNotStreamable. Agreement with the tree-based engines is tested
// on randomized documents and queries.
package streaming

import (
	"errors"
	"fmt"
	"io"

	"encoding/xml"

	"xpathcomplexity/internal/xpath/ast"
)

// ErrNotStreamable reports that a query lies outside the downward PF
// fragment this engine supports.
var ErrNotStreamable = errors.New("query is not downward PF (streaming needs absolute, predicate-free child/descendant paths)")

// maxSteps bounds the NFA size (one bit per step).
const maxSteps = 63

// stepKind distinguishes one-level from closure steps.
type stepKind int

const (
	childStep      stepKind = iota // consume exactly one level
	descendantStep                 // consume one level at any deeper depth
)

// step is one compiled NFA transition.
type step struct {
	kind stepKind
	test ast.NodeTest
}

// Program is a compiled streaming query.
type Program struct {
	steps []step
	// matchText is true when the final step's test selects text nodes.
	matchText bool
	source    string
}

// Compile translates a parsed query into a streaming program. The query
// must be an absolute path whose steps use only child, descendant and
// descendant-or-self axes, without predicates. The '//' desugaring
// (descendant-or-self::node()/child::t) is recognized and fused into a
// descendant step.
func Compile(expr ast.Expr) (*Program, error) {
	p, ok := expr.(*ast.Path)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrNotStreamable, expr)
	}
	if !p.Absolute {
		return nil, fmt.Errorf("%w: relative path", ErrNotStreamable)
	}
	prog := &Program{source: p.String()}
	pending := childStep
	for _, s := range p.Steps {
		if len(s.Preds) > 0 {
			return nil, fmt.Errorf("%w: predicates", ErrNotStreamable)
		}
		switch s.Axis {
		case ast.AxisChild:
			// Keep 'pending' (child or descendant from a preceding //).
		case ast.AxisDescendantOrSelf:
			if s.Test.Kind == ast.TestNode {
				// The '//' shape: arm the next step as a descendant
				// step. A trailing //node() matches like descendant-or-
				// self; approximate by a descendant step on node() when
				// final.
				if pending == childStep {
					pending = descendantStep
					continue
				}
				continue // // // collapses
			}
			return nil, fmt.Errorf("%w: descendant-or-self with a node test", ErrNotStreamable)
		case ast.AxisDescendant:
			pending = descendantStep
		case ast.AxisSelf:
			if s.Test.Kind == ast.TestNode {
				continue // self::node() is the identity
			}
			return nil, fmt.Errorf("%w: self with a node test", ErrNotStreamable)
		default:
			return nil, fmt.Errorf("%w: axis %v", ErrNotStreamable, s.Axis)
		}
		if len(prog.steps) >= maxSteps {
			// Wrap ErrNotStreamable like every other rejection, so
			// callers matching it treat an oversized query as "outside
			// the fragment", not as a fatal evaluation error.
			return nil, fmt.Errorf("%w: query exceeds %d steps", ErrNotStreamable, maxSteps)
		}
		prog.steps = append(prog.steps, step{kind: pending, test: s.Test})
		pending = childStep
	}
	if pending == descendantStep {
		return nil, fmt.Errorf("%w: trailing '//'", ErrNotStreamable)
	}
	if len(prog.steps) == 0 {
		return nil, fmt.Errorf("%w: bare '/'", ErrNotStreamable)
	}
	last := prog.steps[len(prog.steps)-1].test
	prog.matchText = last.Kind == ast.TestText
	return prog, nil
}

// Match is one streamed hit.
type Match struct {
	// Depth is the element nesting depth (document element = 1).
	Depth int
	// Name is the element tag ("" for text matches).
	Name string
	// Text is the character data for text() matches.
	Text string
}

// states is the NFA active set: bit i set means steps[0..i-1] have been
// matched along the current path, so step i is armed. Bit len(steps)
// means "full match at this node".
type states uint64

// Run streams the document from r, invoking emit for every match, and
// returns the match count. Memory is bounded by the element nesting
// depth.
func (p *Program) Run(r io.Reader, emit func(Match)) (int, error) {
	dec := xml.NewDecoder(r)
	count := 0
	// stack[d] = active states at depth d; depth 0 = virtual root with
	// step 0 armed.
	stack := []states{1}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return count, fmt.Errorf("streaming: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			parent := stack[len(stack)-1]
			next := p.advance(parent, t.Name.Local, false)
			if next&(1<<uint(len(p.steps))) != 0 && !p.matchText {
				count++
				if emit != nil {
					emit(Match{Depth: len(stack), Name: t.Name.Local})
				}
			}
			stack = append(stack, next)
		case xml.EndElement:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case xml.CharData:
			if !p.matchText {
				continue
			}
			parent := stack[len(stack)-1]
			next := p.advance(parent, "", true)
			if next&(1<<uint(len(p.steps))) != 0 {
				count++
				if emit != nil {
					emit(Match{Depth: len(stack), Text: string(t)})
				}
			}
		}
	}
	return count, nil
}

// advance computes the child active set from a parent active set for a
// node with the given name (or a text node).
func (p *Program) advance(parent states, name string, isText bool) states {
	var next states
	for i, st := range p.steps {
		armed := parent&(1<<uint(i)) != 0
		if st.kind == descendantStep {
			// A descendant step stays armed at every deeper level.
			if armed {
				next |= 1 << uint(i)
			}
		}
		if !armed {
			continue
		}
		if p.stepMatches(st, name, isText) {
			next |= 1 << uint(i+1)
		}
	}
	// A full match also persists for descendant-armed suffixes? No: the
	// final bit is consumed per node; matches are reported immediately.
	return next
}

func (p *Program) stepMatches(st step, name string, isText bool) bool {
	switch st.test.Kind {
	case ast.TestName:
		return !isText && st.test.Name == name
	case ast.TestStar:
		return !isText
	case ast.TestText:
		return isText
	case ast.TestNode:
		return true
	default:
		return false
	}
}

// Count runs the program and returns only the number of matches.
func (p *Program) Count(r io.Reader) (int, error) { return p.Run(r, nil) }

// Source returns the canonical query text the program was compiled from.
func (p *Program) Source() string { return p.source }
