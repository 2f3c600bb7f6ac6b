// Package value implements the XPath 1.0 value model: the four types
// node-set, boolean, number and string, the conversion rules between them,
// XPath number formatting and parsing, and the comparison semantics of
// §3.4 of the recommendation (existential semantics over node-sets).
//
// These semantics are exactly the "effective semantics function" F of
// Gottlob/Koch/Pichler [VLDB'02] that the paper's Theorem 6.2 refers to:
// every evaluator in this repository delegates operator and conversion
// behaviour to this package, so the five engines cannot drift apart.
package value

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"xpathcomplexity/internal/xmltree"
)

// Kind discriminates the four XPath value types.
type Kind int

// The XPath 1.0 value kinds.
const (
	KindNodeSet Kind = iota
	KindBoolean
	KindNumber
	KindString
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNodeSet:
		return "node-set"
	case KindBoolean:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is an XPath 1.0 value: one of NodeSet, Boolean, Number, String.
type Value interface {
	Kind() Kind
}

// NodeSet is a set of document nodes maintained in document order without
// duplicates.
type NodeSet []*xmltree.Node

// Boolean is an XPath boolean.
type Boolean bool

// Number is an XPath number (IEEE 754 double).
type Number float64

// String is an XPath string.
type String string

// Kind implements Value.
func (NodeSet) Kind() Kind { return KindNodeSet }

// Kind implements Value.
func (Boolean) Kind() Kind { return KindBoolean }

// Kind implements Value.
func (Number) Kind() Kind { return KindNumber }

// Kind implements Value.
func (String) Kind() Kind { return KindString }

// NewNodeSet builds a node-set from arbitrary nodes: sorted in document
// order, duplicates removed.
func NewNodeSet(nodes ...*xmltree.Node) NodeSet {
	ns := NodeSet(append([]*xmltree.Node(nil), nodes...))
	ns.normalize()
	return ns
}

// NodeSetFromOrdered wraps nodes as a node-set without copying or
// normalizing. The caller passes ownership and guarantees the slice is
// already sorted in document order and duplicate free (e.g. a
// nodeset.Set.Nodes() materialization).
func NodeSetFromOrdered(nodes []*xmltree.Node) NodeSet { return NodeSet(nodes) }

func (ns *NodeSet) normalize() {
	s := *ns
	slices.SortFunc(s, func(a, b *xmltree.Node) int { return int(a.Ord - b.Ord) })
	out := s[:0]
	for i, n := range s {
		if i == 0 || s[i-1] != n {
			out = append(out, n)
		}
	}
	*ns = out
}

// Contains reports membership using binary search over document order.
func (ns NodeSet) Contains(n *xmltree.Node) bool {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].Ord >= n.Ord })
	return i < len(ns) && ns[i] == n
}

// Union merges two node-sets.
func (ns NodeSet) Union(other NodeSet) NodeSet {
	out := make(NodeSet, 0, len(ns)+len(other))
	i, j := 0, 0
	for i < len(ns) && j < len(other) {
		a, b := ns[i], other[j]
		switch {
		case a.Ord < b.Ord:
			out = append(out, a)
			i++
		case a.Ord > b.Ord:
			out = append(out, b)
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, ns[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Equal reports whether two node-sets contain exactly the same nodes.
func (ns NodeSet) Equal(other NodeSet) bool {
	if len(ns) != len(other) {
		return false
	}
	for i := range ns {
		if ns[i] != other[i] {
			return false
		}
	}
	return true
}

// StringValue returns the XPath string conversion of the node-set: the
// string-value of its first node in document order, or "" when empty.
func (ns NodeSet) StringValue() string {
	if len(ns) == 0 {
		return ""
	}
	return ns[0].StringValue()
}

// ToBoolean converts any value to boolean per XPath 1.0 §4.3.
func ToBoolean(v Value) bool {
	switch x := v.(type) {
	case NodeSet:
		return len(x) > 0
	case Boolean:
		return bool(x)
	case Number:
		f := float64(x)
		return f != 0 && !math.IsNaN(f)
	case String:
		return len(x) > 0
	default:
		return false
	}
}

// ToNumber converts any value to number per XPath 1.0 §4.4.
func ToNumber(v Value) float64 {
	switch x := v.(type) {
	case NodeSet:
		return ParseNumber(x.StringValue())
	case Boolean:
		if x {
			return 1
		}
		return 0
	case Number:
		return float64(x)
	case String:
		return ParseNumber(string(x))
	default:
		return math.NaN()
	}
}

// ToString converts any value to string per XPath 1.0 §4.2.
func ToString(v Value) string {
	switch x := v.(type) {
	case NodeSet:
		return x.StringValue()
	case Boolean:
		if x {
			return "true"
		}
		return "false"
	case Number:
		return FormatNumber(float64(x))
	case String:
		return string(x)
	default:
		return ""
	}
}

// FormatNumber renders a float per the XPath 1.0 string() rules: "NaN",
// "Infinity"/"-Infinity", integers without a decimal point, otherwise plain
// decimal notation (never scientific).
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0" // covers -0 as well
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
}

// ParseNumber parses a string per the XPath 1.0 number() rules: optional
// surrounding XML whitespace, optional '-', digits with an optional
// fractional part; anything else yields NaN.
func ParseNumber(s string) float64 {
	t := strings.Trim(s, " \t\r\n")
	if t == "" {
		return math.NaN()
	}
	body := t
	if body[0] == '-' {
		body = body[1:]
	}
	if body == "" || body == "." {
		return math.NaN()
	}
	dots := 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '.' {
			dots++
			if dots > 1 {
				return math.NaN()
			}
			continue
		}
		if c < '0' || c > '9' {
			return math.NaN()
		}
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}
