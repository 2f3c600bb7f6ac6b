package xmltree

import (
	"runtime/debug"
	"strings"
	"testing"
)

// Parsing, building, fingerprinting and compacting a document keep
// their own stacks: a 2×10⁵-deep chain goes through all of them under
// a 4 MiB goroutine stack cap, which a walk recursing once per level
// overflows. Not parallel: the cap is process-wide.
func TestDeepDocument(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	const depth = 200_000
	chain := ChainDocument(depth, "a")
	if chain.Size() != depth+1 {
		t.Fatalf("ChainDocument: %d nodes, want %d", chain.Size(), depth+1)
	}
	want := chain.Fingerprint()
	src := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	for _, backend := range Backends() {
		d, err := ParseWith(strings.NewReader(src), ParseConfig{Backend: backend})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if d.Size() != depth+1 || d.Fingerprint() != want {
			t.Fatalf("%s: %d nodes, fingerprint %x; want %d, %x", backend, d.Size(), d.Fingerprint(), depth+1, want)
		}
		if leaf := d.Nodes[depth]; leaf.Pre != depth || leaf.Post != 0 || leaf.Depth() != depth {
			t.Fatalf("%s: deepest node numbered pre %d post %d at depth %d", backend, leaf.Pre, leaf.Post, leaf.Depth())
		}
	}
	c := Compact(chain)
	if c.Backend() != BackendColumnar || c.Fingerprint() != want {
		t.Fatalf("Compact: backend %s, fingerprint %x, want %x", c.Backend(), c.Fingerprint(), want)
	}
	if fp := fingerprintDocument(c); fp != want {
		t.Fatalf("recomputed fingerprint of the compacted chain %x, want %x", fp, want)
	}
}
