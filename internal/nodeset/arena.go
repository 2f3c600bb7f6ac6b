// Scratch-arena layer: per-evaluation recycling of bitset word buffers
// and node frontier buffers through size-classed sync.Pools.
//
// Lifecycle: an engine takes one Arena per evaluation (NewArena), routes
// every transient Set / frontier buffer through it, and calls Release
// once the result has been materialized into memory the arena does not
// own (value.NewNodeSet copies; Set.Nodes allocates fresh). Release
// returns every buffer to the global pools, so a warm steady state
// performs no heap allocation for set algebra at all.
//
// Pooling is bypassed (plain heap allocation) in two situations: a nil
// *Arena receiver — every method is nil-safe, which is how the
// package-level New/Full/Clone/... compatibility constructors and the
// index's immutable cached masks work — and buffers larger than the
// biggest size class, which are handed out unpooled and dropped on
// Release rather than pinning huge documents in the pools.
package nodeset

import (
	"sync"
	"sync/atomic"

	"xpathcomplexity/internal/xmltree"
)

// Word-buffer size classes: class c holds capacities up to 1<<c words.
// Class 14 covers 2^14 words = 2^20 nodes; beyond that allocation is
// unpooled.
const maxWordClass = 14

var wordPools [maxWordClass + 1]sync.Pool

// wordClass returns the smallest class whose capacity covers n words,
// or -1 when n exceeds every class.
func wordClass(n int) int {
	for c := 0; c <= maxWordClass; c++ {
		if n <= 1<<c {
			return c
		}
	}
	return -1
}

// nodeBufPool recycles frontier buffers ([]*xmltree.Node). Buffers are
// cleared before being pooled so they never pin document nodes.
var nodeBufPool = sync.Pool{
	New: func() any { b := make([]*xmltree.Node, 0, 64); return &b },
}

// arenaPool recycles Arena structs themselves (their bookkeeping
// slices keep capacity across evaluations).
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// Arena hands out pooled scratch buffers for one evaluation and
// returns them all to the global pools on Release. A nil *Arena is
// valid everywhere and falls back to plain heap allocation.
//
// Methods are safe for concurrent use (the parallel engine's branch
// and data goroutines share the evaluation's arena); only the
// bookkeeping is locked, never the buffer contents.
type Arena struct {
	mu       sync.Mutex
	words    []*[]uint64
	nodeBufs []*[]*xmltree.Node
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewArena returns an arena (itself recycled) ready for one evaluation.
func NewArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns every buffer the arena handed out back to the global
// pools and recycles the arena. No Set or node buffer obtained from the
// arena may be used afterwards.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	words, nodeBufs := a.words, a.nodeBufs
	a.words, a.nodeBufs = a.words[:0], a.nodeBufs[:0]
	a.mu.Unlock()
	for _, p := range words {
		if c := wordClass(cap(*p)); c >= 0 {
			wordPools[c].Put(p)
		}
	}
	for _, p := range nodeBufs {
		b := *p
		for i := range b {
			b[i] = nil
		}
		*p = b[:0]
		nodeBufPool.Put(p)
	}
	a.hits.Store(0)
	a.misses.Store(0)
	arenaPool.Put(a)
}

// Stats reports pool hits and misses since the arena was taken. A hit
// is a buffer served from a pool; a miss required heap allocation.
func (a *Arena) Stats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.hits.Load(), a.misses.Load()
}

// getWords returns a buffer of exactly n words. When zero is true the
// buffer is cleared; Full and Clone skip the clearing because they
// overwrite every word anyway.
func (a *Arena) getWords(n int, zero bool) []uint64 {
	if a == nil {
		return make([]uint64, n) // zeroed by the runtime
	}
	c := wordClass(n)
	var p *[]uint64
	if c >= 0 {
		if got, _ := wordPools[c].Get().(*[]uint64); got != nil {
			p = got
			a.hits.Add(1)
		}
	}
	if p == nil {
		a.misses.Add(1)
		buf := make([]uint64, n, capForClass(c, n))
		p = &buf
		zero = false // fresh memory is already zero
	}
	w := (*p)[:n]
	if zero {
		for i := range w {
			w[i] = 0
		}
	}
	*p = w
	a.mu.Lock()
	a.words = append(a.words, p)
	a.mu.Unlock()
	return w
}

func capForClass(c, n int) int {
	if c < 0 {
		return n
	}
	return 1 << c
}

// NodeBuf returns a pooled, empty node buffer. Append through the
// pointer (or store the grown slice back into it) so Release can see
// the final header and clear it.
func (a *Arena) NodeBuf() *[]*xmltree.Node {
	if a == nil {
		b := make([]*xmltree.Node, 0, 64)
		return &b
	}
	p := nodeBufPool.Get().(*[]*xmltree.Node)
	a.mu.Lock()
	a.nodeBufs = append(a.nodeBufs, p)
	a.mu.Unlock()
	return p
}

// New returns the empty set over doc, arena-backed.
func (a *Arena) New(doc *xmltree.Document) Set {
	return Set{Doc: doc, Words: a.getWords(WordCount(len(doc.Nodes)), true)}
}

// Full returns the set of all nodes of doc, arena-backed.
func (a *Arena) Full(doc *xmltree.Document) Set {
	s := Set{Doc: doc, Words: a.getWords(WordCount(len(doc.Nodes)), false)}
	s.fill()
	return s
}

// Clone copies s into an arena-backed set.
func (a *Arena) Clone(s Set) Set {
	out := Set{Doc: s.Doc, Words: a.getWords(len(s.Words), false)}
	copy(out.Words, s.Words)
	return out
}

// FromNodes builds an arena-backed set from explicit members.
func (a *Arena) FromNodes(doc *xmltree.Document, nodes ...*xmltree.Node) Set {
	s := a.New(doc)
	for _, n := range nodes {
		s.Add(n)
	}
	return s
}

// FromOrds builds an arena-backed set from member ords.
func (a *Arena) FromOrds(doc *xmltree.Document, ords []int32) Set {
	s := a.New(doc)
	for _, o := range ords {
		s.Words[o>>6] |= 1 << (uint(o) & 63)
	}
	return s
}

// And returns s ∩ t as a fresh arena-backed set.
func (a *Arena) And(s, t Set) Set {
	out := Set{Doc: s.Doc, Words: a.getWords(len(s.Words), false)}
	for i, w := range s.Words {
		out.Words[i] = w & t.Words[i]
	}
	return out
}

// Or returns s ∪ t as a fresh arena-backed set.
func (a *Arena) Or(s, t Set) Set {
	out := Set{Doc: s.Doc, Words: a.getWords(len(s.Words), false)}
	for i, w := range s.Words {
		out.Words[i] = w | t.Words[i]
	}
	return out
}

// Not returns the complement of s over all document nodes as a fresh
// arena-backed set.
func (a *Arena) Not(s Set) Set {
	out := Set{Doc: s.Doc, Words: a.getWords(len(s.Words), false)}
	for i, w := range s.Words {
		out.Words[i] = ^w
	}
	if n := len(out.Words); n > 0 {
		out.Words[n-1] &= tailMask(len(s.Doc.Nodes))
	}
	return out
}
