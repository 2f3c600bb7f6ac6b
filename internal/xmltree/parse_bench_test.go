package xmltree_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"xpathcomplexity/internal/workload"
	"xpathcomplexity/internal/xmltree"
)

// BenchmarkParse times parsing one serialized auction site: the scanner
// into each backend, and the encoding/xml oracle (the parser the
// scanner replaced, kept as a test-only arm). Each arm reports ns,
// allocations and bytes per document node.
func BenchmarkParse(b *testing.B) {
	site := workload.Auction(rand.New(rand.NewSource(1)), workload.Config{People: 120, Items: 180, MaxBids: 5})
	src := site.XMLString()
	nodes := float64(site.Size())
	arms := []struct {
		name  string
		parse func() (*xmltree.Document, error)
	}{
		{"scanner/" + xmltree.BackendPointer, func() (*xmltree.Document, error) {
			return xmltree.ParseWith(strings.NewReader(src), xmltree.ParseConfig{Backend: xmltree.BackendPointer})
		}},
		{"scanner/" + xmltree.BackendColumnar, func() (*xmltree.Document, error) {
			return xmltree.ParseWith(strings.NewReader(src), xmltree.ParseConfig{Backend: xmltree.BackendColumnar})
		}},
		{"oracle", func() (*xmltree.Document, error) {
			return xmltree.OracleParse(strings.NewReader(src), false)
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := arm.parse()
				if err != nil {
					b.Fatal(err)
				}
				if d.Size() != site.Size() {
					b.Fatalf("parsed %d nodes, want %d", d.Size(), site.Size())
				}
			}
			b.StopTimer()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			per := float64(b.N) * nodes
			b.ReportMetric(float64(elapsed.Nanoseconds())/per, "ns/node")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/node")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/node")
		})
	}
}
