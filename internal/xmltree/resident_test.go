//go:build !race

package xmltree_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"xpathcomplexity/internal/workload"
	"xpathcomplexity/internal/xmltree"
)

// ResidentBytes is what the xpathd registry charges a document against
// its byte budget, so it must track what holding the document costs.
// Hold probeDocs parsed and indexed copies of a site the size of the
// serving benchmark's cold corpus on each backend, and compare the
// growth of the live heap per copy with the charge. The race detector
// changes allocation sizes, hence the build tag.
func TestResidentBytesMatchesHeap(t *testing.T) {
	const probeDocs = 40
	src := workload.Auction(rand.New(rand.NewSource(1)), workload.Config{
		People: 30, Items: 50, MaxBids: 5,
	}).XMLString()
	for _, backend := range xmltree.Backends() {
		t.Run(backend, func(t *testing.T) {
			parse := func() *xmltree.Document {
				d, err := xmltree.ParseWith(strings.NewReader(src), xmltree.ParseConfig{Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				d.Index()
				return d
			}
			parse() // warm the scanner's pooled arrays
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			docs := make([]*xmltree.Document, probeDocs)
			for i := range docs {
				docs[i] = parse()
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			perDoc := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / probeDocs
			charged := float64(docs[0].ResidentBytes())
			runtime.KeepAlive(docs)
			ratio := charged / perDoc
			t.Logf("%s: %d nodes, charged %.0f B, heap %.0f B per document (%.3f)",
				backend, docs[0].Size(), charged, perDoc, ratio)
			if ratio < 0.9 || ratio > 1.1 {
				t.Fatalf("ResidentBytes = %.0f B is %.1f%% off the measured %.0f B per document (bound ±10%%)",
					charged, 100*(ratio-1), perDoc)
			}
		})
	}
}
